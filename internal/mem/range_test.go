package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kard/internal/faultinject"
)

// TestMmapAnonAcrossLeaves maps runs longer than a radix leaf (8192
// pages), one leaf-aligned and one starting mid-leaf, and range-translates
// across the leaf boundaries and past the last mapping, against the
// map-backed reference: every count, error, TLB slot and page-table entry
// must agree.
func TestMmapAnonAcrossLeaves(t *testing.T) {
	d := newDiffPair(diffTLBEntries)
	var bases []Addr
	for _, m := range []struct {
		n    uint64
		pkey uint8
	}{{10000, 5}, {3, 0}, {9000, 2}} {
		a1, err1 := d.radix.MmapAnon(m.n, m.pkey)
		a2, err2 := d.ref.MmapAnon(m.n, m.pkey)
		if err1 != nil || err2 != nil || a1 != a2 {
			t.Fatalf("MmapAnon(%d, %d): radix (%s, %v) vs ref (%s, %v)", m.n, m.pkey, a1, err1, a2, err2)
		}
		bases = append(bases, a1)
	}
	d.compareState(t)
	// The first run starts on a leaf boundary, so its page 8192 opens the
	// next leaf; the third starts mid-leaf and ends in a later one.
	if PageOf(bases[0])&radixMask != 0 || PageOf(bases[2])&radixMask == 0 {
		t.Fatalf("layout changed: runs start at leaf offsets %d and %d", PageOf(bases[0])&radixMask, PageOf(bases[2])&radixMask)
	}
	page := Addr(PageSize)
	ranges := []struct {
		addr Addr
		size uint64
	}{
		{bases[0] + 8190*page + 100, 5 * PageSize},     // across the first boundary, cold
		{bases[0] + 8190*page, 4 * PageSize},           // the same pages again, warm
		{bases[0] + 9990*page, 20 * PageSize},          // from the first run into the second
		{bases[2], 9000 * PageSize},                    // the whole third run, evicting as it goes
		{bases[2] + 8990*page + 7, 12 * PageSize},      // past the last mapping: stops unmapped
		{bases[0], 10003 * PageSize},                   // the first two runs end to end
		{Addr(1) << 44, 3 * PageSize},                  // no leaf at all
		{bases[0] + 8191*page + PageSize - 1, 2},       // two bytes straddling the boundary
		{bases[2] + 6000*page, 3000*PageSize + 1},      // ends one byte into the unmapped page
		{bases[1] + 2*page + PageSize/2, PageSize / 4}, // inside one page
		{bases[2] + 9000*page + 9, 8},                  // starting past the last mapping
	}
	for _, r := range ranges {
		d.compareRange(t, r.addr, r.size)
		d.compareTLB(t, fmt.Sprintf("translateRange(%s, %d)", r.addr, r.size))
	}
	d.compareState(t)
}

// rangeTwin is two radix spaces built and driven identically, except that
// run translates each range with TranslateRange and each translates it
// page by page with Translate. Each gets its own injector from the same
// plan, so matching frame-allocation faults mean matching call order.
type rangeTwin struct {
	run, each *AddressSpace
}

func newRangeTwin(tlbEntries int, frames uint64, plan faultinject.Plan) *rangeTwin {
	w := &rangeTwin{run: NewAddressSpace(tlbEntries), each: NewAddressSpace(tlbEntries)}
	for _, as := range []*AddressSpace{w.run, w.each} {
		as.SetFrameLimit(frames)
		as.SetInjector(faultinject.New(1, plan))
	}
	return w
}

// translatePages is the per-page reference: Translate on each page of
// [addr, addr+size) — at addr for the first page, at its base address for
// the rest — stopping at the first error, as the engine's access path did
// page by page.
func translatePages(as *AddressSpace, addr Addr, size uint64) (pages, misses, minors uint64, err error) {
	first, last := PageRange(addr, size)
	for p := first; p <= last; p++ {
		a := p.Base()
		if p == first {
			a = addr
		}
		_, miss, minor, err := as.Translate(a)
		if err != nil {
			return pages, misses, minors, err
		}
		pages++
		if miss {
			misses++
		}
		if minor {
			minors++
		}
	}
	return pages, misses, minors, nil
}

// compare translates [addr, addr+size) in both spaces and asserts every
// effect agrees: the counts and error text, the CLOCK state down to the
// hand, the MRU slot and each slot's page and used bit, the radix
// walk-depth counts, and the fault, residency and frame accounting.
func (w *rangeTwin) compare(t *testing.T, addr Addr, size uint64) error {
	t.Helper()
	n1, miss1, minor1, err1 := w.run.TranslateRange(addr, size)
	n2, miss2, minor2, err2 := translatePages(w.each, addr, size)
	if n1 != n2 || miss1 != miss2 || minor1 != minor2 || fmt.Sprint(err1) != fmt.Sprint(err2) {
		t.Fatalf("range(%s, %d): run (pages=%d misses=%d minors=%d err=%v) vs per page (pages=%d misses=%d minors=%d err=%v)",
			addr, size, n1, miss1, minor1, err1, n2, miss2, minor2, err2)
	}
	a, b := w.run.tlb, w.each.tlb
	if a.hits != b.hits || a.misses != b.misses || a.hand != b.hand || a.mru != b.mru {
		t.Fatalf("range(%s, %d): TLB hits/misses/hand/mru run %d/%d/%d/%d vs per page %d/%d/%d/%d",
			addr, size, a.hits, a.misses, a.hand, a.mru, b.hits, b.misses, b.hand, b.mru)
	}
	for i := range a.slots {
		sa, sb := a.slots[i], b.slots[i]
		if sa.page != sb.page || sa.present != sb.present || sa.used != sb.used {
			t.Fatalf("range(%s, %d): slot %d run {page=%d present=%v used=%v} vs per page {page=%d present=%v used=%v}",
				addr, size, i, sa.page, sa.present, sa.used, sb.page, sb.present, sb.used)
		}
	}
	if da, db := w.run.pages.walkDepths(), w.each.pages.walkDepths(); da != db {
		t.Fatalf("range(%s, %d): walk depths run %v vs per page %v", addr, size, da, db)
	}
	got := []uint64{w.run.MinorFaults, w.run.ResidentPages(), w.run.PhysicalBytes(), w.run.PeakResidentBytes()}
	want := []uint64{w.each.MinorFaults, w.each.ResidentPages(), w.each.PhysicalBytes(), w.each.PeakResidentBytes()}
	if !slices.Equal(got, want) {
		t.Fatalf("range(%s, %d): minor faults, resident pages, physical and peak bytes run %v vs per page %v",
			addr, size, got, want)
	}
	return err1
}

// TestTranslateRangeMatchesTranslate holds the run walk to per-page
// Translate on a second radix space, where the differential test cannot:
// its map reference reports no walk depths. Runs cross leaves, hit,
// miss and evict in a 16-entry TLB, stop at an unmapped hole, at the end
// of the mappings and at an address with no leaf, and fault in pages
// until the frame limit and an injected frame-allocation fault stop them.
func TestTranslateRangeMatchesTranslate(t *testing.T) {
	plan := faultinject.Plan{Sites: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteFrameAlloc: {Every: 97, Transient: true},
	}}
	w := newRangeTwin(16, 5000, plan)
	var bases []Addr
	for _, n := range []uint64{9000, 40, 300} {
		a1, err1 := w.run.MmapAnon(n, 1)
		a2, err2 := w.each.MmapAnon(n, 1)
		if err1 != nil || err2 != nil || a1 != a2 {
			t.Fatalf("MmapAnon(%d): %s, %v vs %s, %v", n, a1, err1, a2, err2)
		}
		bases = append(bases, a1)
	}
	page := Addr(PageSize)
	for _, as := range []*AddressSpace{w.run, w.each} {
		if err := as.Munmap(bases[0]+8100*page, 10); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		addr Addr
		size uint64
	}{
		{bases[0] + 8180*page + 17, 30 * PageSize}, // across the leaf boundary
		{bases[0] + 8180*page, 30 * PageSize},      // again: hits and evictions
		{bases[0] + 8095*page, 10 * PageSize},      // into the hole
		{bases[0] + 8100*page + 5, PageSize},       // starting in the hole
		{bases[2] + 290*page, 20 * PageSize},       // past the last mapping
		{Addr(1) << 44, PageSize},                  // no leaf
		{Addr(1) << 30, PageSize},                  // no leaf, shallower
	} {
		w.compare(t, r.addr, r.size)
	}
	rng := rand.New(rand.NewSource(20261019))
	spans := []uint64{9000, 40, 300}
	var injected, exhausted int
	for i := 0; i < 3000; i++ {
		m := rng.Intn(len(bases))
		start := uint64(rng.Intn(int(spans[m] * PageSize)))
		size := 1 + uint64(rng.Intn(40*PageSize))
		err := w.compare(t, bases[m]+Addr(start), size)
		switch {
		case faultinject.IsInjected(err):
			injected++
		case errors.Is(err, ErrFrameExhausted):
			exhausted++
		}
	}
	if w.run.tlb.hits == 0 || injected == 0 || exhausted == 0 {
		t.Fatalf("the sequence hit %d times, met %d injected faults and %d exhausted frame pools; it should do all three",
			w.run.tlb.hits, injected, exhausted)
	}
}
