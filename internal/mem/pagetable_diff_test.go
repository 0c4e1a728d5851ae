package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The differential test: two address spaces — one over the production
// radix page table and PTE-linked CLOCK dTLB, one over the map-backed
// reference table and the page-keyed reference CLOCK (refTLB) — execute
// identical randomized mmap/munmap/protect/translate/range-translate/
// store/load sequences. A range translation walks the production space
// leaf by leaf and the reference page by page through Translate.
// Every observable must match: operation results, each translation's miss
// and minor-fault outcome, TLB hit/miss totals and the cached pages after
// every step (with the production TLB's slot ↔ PTE links checked too), and
// PTE contents, RSS and physical footprints, fault and syscall counters,
// and full page-table walks at checkpoints. This is the proof that the
// radix table and the directory-free TLB change no simulated statistic.

// diffPair is the two address spaces under comparison plus the mirrored
// auxiliary state the driver needs (live mappings, paired memfds).
type diffPair struct {
	radix, ref *AddressSpace
	fdR, fdM   *Memfd
	// live mappings, as (base page, page count) of successful mmaps.
	mappings []diffMapping
	// cached is the production TLB's cached pages after the last step.
	cached []Page
}

type diffMapping struct {
	base Addr
	n    uint64
}

// diffTLBEntries is deliberately small so the sequences exercise CLOCK
// eviction and slot reuse, not just cold inserts.
const diffTLBEntries = 64

func newDiffPair(tlbEntries int) *diffPair {
	d := &diffPair{
		radix: newAddressSpace(newRadixTable(), NewTLB(tlbEntries)),
		ref:   newAddressSpace(newMapTable(), newRefTLB(tlbEntries)),
	}
	d.fdR = d.radix.NewMemfd("diff")
	d.fdM = d.ref.NewMemfd("diff")
	return d
}

// diffSource supplies the driver's choices: a seeded *rand.Rand in the
// randomized test, decoded fuzz input in FuzzTLBDifferential.
type diffSource interface {
	Intn(n int) int
	Uint64() uint64
	Read(p []byte) (int, error)
}

// step applies one random operation to both spaces and asserts the
// immediate results agree. It returns a description of the operation for
// failure messages.
func (d *diffPair) step(t *testing.T, rng diffSource) string {
	t.Helper()
	switch op := rng.Intn(100); {
	case op < 20: // mmap anonymous
		n := uint64(1 + rng.Intn(16))
		pkey := uint8(rng.Intn(16))
		a1, err1 := d.radix.MmapAnon(n, pkey)
		a2, err2 := d.ref.MmapAnon(n, pkey)
		if a1 != a2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("MmapAnon(%d, %d): radix (%s, %v) vs ref (%s, %v)", n, pkey, a1, err1, a2, err2)
		}
		if err1 == nil {
			d.mappings = append(d.mappings, diffMapping{a1, n})
		}
		return fmt.Sprintf("mmapAnon(%d, %d)", n, pkey)

	case op < 28: // mmap shared, sometimes past EOF to hit the rollback path
		filePages := d.fdR.Size() / PageSize
		if rng.Intn(4) == 0 || filePages == 0 {
			grow := (filePages + uint64(1+rng.Intn(4))) * PageSize
			if err1, err2 := d.fdR.Truncate(grow), d.fdM.Truncate(grow); (err1 == nil) != (err2 == nil) {
				t.Fatalf("Truncate(%d): radix %v vs ref %v", grow, err1, err2)
			}
			filePages = d.fdR.Size() / PageSize
		}
		off := uint64(rng.Intn(int(filePages))) * PageSize
		// Overshooting the file size by up to 2 pages exercises the
		// partial-failure rollback (later pages fail frameAt).
		n := uint64(1 + rng.Intn(int(filePages-off/PageSize)+2))
		pkey := uint8(rng.Intn(16))
		a1, err1 := d.radix.MmapShared(d.fdR, off, n, pkey)
		a2, err2 := d.ref.MmapShared(d.fdM, off, n, pkey)
		if a1 != a2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("MmapShared(off=%d, n=%d): radix (%s, %v) vs ref (%s, %v)", off, n, a1, err1, a2, err2)
		}
		if err1 == nil {
			d.mappings = append(d.mappings, diffMapping{a1, n})
		}
		return fmt.Sprintf("mmapShared(off=%d, n=%d, pkey=%d) -> err=%v", off, n, pkey, err1)

	case op < 38: // munmap a live mapping (or a bogus address)
		if len(d.mappings) == 0 || rng.Intn(8) == 0 {
			bogus := Addr(rng.Uint64() &^ PageMask)
			err1 := d.radix.Munmap(bogus, 1)
			err2 := d.ref.Munmap(bogus, 1)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("Munmap(bogus %s): radix %v vs ref %v", bogus, err1, err2)
			}
			return "munmap(bogus)"
		}
		i := rng.Intn(len(d.mappings))
		m := d.mappings[i]
		err1 := d.radix.Munmap(m.base, m.n)
		err2 := d.ref.Munmap(m.base, m.n)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Munmap(%s, %d): radix %v vs ref %v", m.base, m.n, err1, err2)
		}
		d.mappings = append(d.mappings[:i], d.mappings[i+1:]...)
		return fmt.Sprintf("munmap(%s, %d)", m.base, m.n)

	case op < 50: // protect a byte range of a live mapping
		if len(d.mappings) == 0 {
			return "protect(skipped)"
		}
		m := d.mappings[rng.Intn(len(d.mappings))]
		span := m.n * PageSize
		start := uint64(rng.Intn(int(span)))
		size := 1 + uint64(rng.Intn(int(span-start)))
		pkey := uint8(rng.Intn(16))
		err1 := d.radix.Protect(m.base+Addr(start), size, pkey)
		err2 := d.ref.Protect(m.base+Addr(start), size, pkey)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Protect(%s+%d, %d, %d): radix %v vs ref %v", m.base, start, size, pkey, err1, err2)
		}
		return fmt.Sprintf("protect(%s+%d, %d, %d)", m.base, start, size, pkey)

	case op < 70: // translate (mapped or unmapped)
		var addr Addr
		if len(d.mappings) > 0 && rng.Intn(8) != 0 {
			m := d.mappings[rng.Intn(len(d.mappings))]
			addr = m.base + Addr(rng.Intn(int(m.n*PageSize)))
		} else {
			addr = Addr(rng.Uint64())
		}
		p1, miss1, minor1, err1 := d.radix.Translate(addr)
		p2, miss2, minor2, err2 := d.ref.Translate(addr)
		if miss1 != miss2 || minor1 != minor2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("Translate(%s): radix (miss=%v minor=%v err=%v) vs ref (miss=%v minor=%v err=%v)",
				addr, miss1, minor1, err1, miss2, minor2, err2)
		}
		if err1 == nil {
			comparePTE(t, addr, p1, p2)
		}
		return fmt.Sprintf("translate(%s)", addr)

	case op < 85: // translate a byte range as one page run
		var addr Addr
		var size uint64
		if len(d.mappings) > 0 && rng.Intn(8) != 0 {
			// Up to two pages past the mapping's end: a run may end
			// at, or run into, an unmapped page.
			m := d.mappings[rng.Intn(len(d.mappings))]
			span := m.n * PageSize
			start := uint64(rng.Intn(int(span)))
			addr = m.base + Addr(start)
			size = 1 + uint64(rng.Intn(int(span-start+2*PageSize)))
		} else {
			// Cleared top bit: the range cannot wrap the address space.
			addr = Addr(rng.Uint64() >> 1)
			size = 1 + uint64(rng.Intn(4*PageSize))
		}
		d.compareRange(t, addr, size)
		return fmt.Sprintf("translateRange(%s, %d)", addr, size)

	default: // store/load round trip through the data channel
		if len(d.mappings) == 0 {
			return "store(skipped)"
		}
		m := d.mappings[rng.Intn(len(d.mappings))]
		span := m.n * PageSize
		start := uint64(rng.Intn(int(span)))
		size := 1 + uint64(rng.Intn(minInt(128, int(span-start))))
		buf := make([]byte, size)
		rng.Read(buf)
		err1 := d.radix.Store(m.base+Addr(start), buf)
		err2 := d.ref.Store(m.base+Addr(start), buf)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Store(%s+%d, %d): radix %v vs ref %v", m.base, start, size, err1, err2)
		}
		got1 := make([]byte, size)
		got2 := make([]byte, size)
		if err := d.radix.Load(m.base+Addr(start), got1); err != nil {
			t.Fatalf("radix Load: %v", err)
		}
		if err := d.ref.Load(m.base+Addr(start), got2); err != nil {
			t.Fatalf("ref Load: %v", err)
		}
		if string(got1) != string(got2) {
			t.Fatalf("Load(%s+%d) disagrees between tables", m.base, start)
		}
		return fmt.Sprintf("store/load(%s+%d, %d)", m.base, start, size)
	}
}

// compareRange translates [addr, addr+size) in both spaces, as a page run
// in the production space and page by page in the reference, and asserts
// the same page, miss and minor-fault counts and the same error text.
func (d *diffPair) compareRange(t *testing.T, addr Addr, size uint64) {
	t.Helper()
	n1, miss1, minor1, err1 := d.radix.TranslateRange(addr, size)
	n2, miss2, minor2, err2 := d.ref.TranslateRange(addr, size)
	if n1 != n2 || miss1 != miss2 || minor1 != minor2 || fmt.Sprint(err1) != fmt.Sprint(err2) {
		t.Fatalf("TranslateRange(%s, %d): radix (pages=%d misses=%d minors=%d err=%v) vs ref (pages=%d misses=%d minors=%d err=%v)",
			addr, size, n1, miss1, minor1, err1, n2, miss2, minor2, err2)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// comparePTE asserts two PTEs describe the same mapping (frame identity by
// ID — the pools are distinct objects but allocate in the same order).
func comparePTE(t *testing.T, addr Addr, a, b *PTE) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("PTE presence for %s: radix %v vs ref %v", addr, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	var fa, fb FrameID
	if a.Frame != nil {
		fa = a.Frame.ID()
	}
	if b.Frame != nil {
		fb = b.Frame.ID()
	}
	if a.Pkey != b.Pkey || a.touched != b.touched || fa != fb || a.backOff != b.backOff ||
		(a.backing == nil) != (b.backing == nil) {
		t.Fatalf("PTE for %s: radix {pkey=%d touched=%v frame=%d backOff=%d} vs ref {pkey=%d touched=%v frame=%d backOff=%d}",
			addr, a.Pkey, a.touched, fa, a.backOff, b.Pkey, b.touched, fb, b.backOff)
	}
}

// compareTLB asserts the two dTLBs agree after a step — hit and miss
// totals, and the same pages cached in the same slots behind the same
// hand — and that the production TLB's slots and PTEs link to each other.
//
// The links are checked from every present slot, and from the PTE of
// every page that was cached before the step: a step links a PTE only by
// inserting it, it inserts at most two pages, and CLOCK never evicts the
// slot it filled last before a full lap, so a link left stale by this step
// can only sit on a page cached before it. compareState walks every PTE.
func (d *diffPair) compareTLB(t *testing.T, op string) {
	t.Helper()
	clock, ref := d.radix.tlb, d.ref.tlbAlt.(*refTLB)
	if clock.hits != ref.hits || clock.misses != ref.misses {
		t.Fatalf("after %s: TLB hits/misses radix %d/%d vs ref %d/%d", op, clock.hits, clock.misses, ref.hits, ref.misses)
	}
	rp, mp := cachedPages(clock.slots), cachedPages(ref.slots)
	if !slices.Equal(rp, mp) || clock.hand != ref.hand {
		t.Fatalf("after %s: cached pages radix %v (hand %d) vs ref %v (hand %d)", op, rp, clock.hand, mp, ref.hand)
	}
	prev := d.cached
	d.cached = rp
	if err := checkTLBLinks(clock, func(fn func(Page, *PTE) bool) {
		for _, p := range prev {
			if pte := d.radix.pages.peek(p); pte != nil && !fn(p, pte) {
				return
			}
		}
	}); err != nil {
		t.Fatalf("after %s: %v", op, err)
	}
}

// compareState asserts every aggregate statistic and the full page-table
// contents agree.
func (d *diffPair) compareState(t *testing.T) {
	t.Helper()
	r, m := d.radix, d.ref
	type agg struct {
		name   string
		rv, mv uint64
	}
	aggs := []agg{
		{"MappedPages", uint64(r.MappedPages()), uint64(m.MappedPages())},
		{"ResidentPages", r.ResidentPages(), m.ResidentPages()},
		{"ResidentBytes", r.ResidentBytes(), m.ResidentBytes()},
		{"PhysicalBytes", r.PhysicalBytes(), m.PhysicalBytes()},
		{"PeakResidentBytes", r.PeakResidentBytes(), m.PeakResidentBytes()},
		{"PeakPhysicalBytes", r.PeakPhysicalBytes(), m.PeakPhysicalBytes()},
		{"MinorFaults", r.MinorFaults, m.MinorFaults},
		{"MmapCalls", r.MmapCalls, m.MmapCalls},
		{"MunmapCalls", r.MunmapCalls, m.MunmapCalls},
		{"ProtectCalls", r.ProtectCalls, m.ProtectCalls},
		{"TLBHits", r.TLB().Hits(), m.TLB().Hits()},
		{"TLBMisses", r.TLB().Misses(), m.TLB().Misses()},
	}
	for _, a := range aggs {
		if a.rv != a.mv {
			t.Fatalf("%s: radix %d vs ref %d", a.name, a.rv, a.mv)
		}
	}
	if err := checkTLBLinks(r.tlb, r.pages.walk); err != nil {
		t.Fatal(err)
	}
	// Full page-table walk: identical pages in identical order with
	// identical entries.
	type row struct {
		p   Page
		pte *PTE
	}
	var rows []row
	r.pages.walk(func(p Page, pte *PTE) bool {
		rows = append(rows, row{p, pte})
		return true
	})
	i := 0
	m.pages.walk(func(p Page, pte *PTE) bool {
		if i >= len(rows) {
			t.Fatalf("ref table has extra page %d", p)
		}
		if rows[i].p != p {
			t.Fatalf("walk order diverges at %d: radix page %d vs ref page %d", i, rows[i].p, p)
		}
		comparePTE(t, p.Base(), rows[i].pte, pte)
		i++
		return true
	})
	if i != len(rows) {
		t.Fatalf("radix table has %d extra pages", len(rows)-i)
	}
	// Protect semantics: the per-key page sets agree for every key.
	for k := 0; k < 16; k++ {
		pr, pm := r.PagesWithKey(uint8(k)), m.PagesWithKey(uint8(k))
		if len(pr) != len(pm) {
			t.Fatalf("PagesWithKey(%d): radix %d pages vs ref %d pages", k, len(pr), len(pm))
		}
		for j := range pr {
			if pr[j] != pm[j] {
				t.Fatalf("PagesWithKey(%d)[%d]: radix %d vs ref %d", k, j, pr[j], pm[j])
			}
		}
	}
}

// TestPageTableDifferential is the radix ≡ map proof: ≥10k randomized
// operations per seed across several seeds, with aggregate state compared
// periodically and the complete table contents at every checkpoint.
func TestPageTableDifferential(t *testing.T) {
	const (
		opsPerSeed = 12000
		checkpoint = 1500
	)
	for _, seed := range []int64{1, 2, 3, 42, 20260806} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := newDiffPair(diffTLBEntries)
			for i := 0; i < opsPerSeed; i++ {
				d.compareTLB(t, d.step(t, rng))
				if i%checkpoint == checkpoint-1 {
					d.compareState(t)
				}
			}
			d.compareState(t)
		})
	}
}

// fuzzSource decodes fuzz input into the driver's choices: two bytes per
// Intn, eight per Uint64, one per byte read. Exhausted input reads as
// zeros.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSource) Intn(n int) int {
	return int((uint64(s.byte())<<8 | uint64(s.byte())) % uint64(n))
}

func (s *fuzzSource) Uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

func (s *fuzzSource) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = s.byte()
	}
	return len(p), nil
}

// FuzzTLBDifferential runs the differential driver on operation sequences
// decoded from fuzz input — mmap, munmap, protect, translate, range
// translate and store/load — checking each step's results and the dTLBs
// after every step, and every PTE's slot link at the end. The full-table
// comparisons of compareState stay in TestPageTableDifferential: their
// walks cost about a millisecond per input under coverage
// instrumentation, and the fuzzer spent whole runs minimizing one input.
// Inputs are capped at 128 bytes, as the allocator fuzz targets cap
// theirs, and a 4-entry TLB lets sequences that short evict. The seed
// corpus in testdata/fuzz/FuzzTLBDifferential drives CLOCK eviction,
// munmap of cached pages, shared mappings with a rolled-back partial
// mmap, and range translations that evict within the run and stop at an
// unmapped page.
func FuzzTLBDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		src := &fuzzSource{b: data}
		d := newDiffPair(4)
		for len(src.b) > 0 {
			d.compareTLB(t, d.step(t, src))
		}
		if err := checkTLBLinks(d.radix.tlb, d.radix.pages.walk); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMmapSharedRollbackRestoresReservation pins the partial-failure
// contract: when a later page of a MAP_SHARED range fails, the pages
// already mapped are unwound and the address-space reservation is given
// back, so the next mapping lands where it would have without the failure.
func TestMmapSharedRollbackRestoresReservation(t *testing.T) {
	as := NewAddressSpace(0)
	f := as.NewMemfd("heap")
	if err := f.Truncate(PageSize); err != nil {
		t.Fatal(err)
	}
	before := as.MappedPages()
	// Two pages from a one-page file: page 0 maps, page 1 fails frameAt.
	if _, err := as.MmapShared(f, 0, 2, 3); err == nil {
		t.Fatal("mapping past EOF should fail")
	}
	if got := as.MappedPages(); got != before {
		t.Fatalf("failed mmap left %d pages mapped, want %d", got, before)
	}
	a1, err := as.MmapAnon(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	as2 := NewAddressSpace(0)
	a2, err := as2.MmapAnon(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("reservation not rolled back: next mapping at %s, want %s", a1, a2)
	}
}
