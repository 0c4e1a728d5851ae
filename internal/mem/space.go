package mem

import (
	"fmt"

	"kard/internal/faultinject"
	"kard/internal/obs"
)

// PTE is a simulated page-table entry: which physical frame a virtual page
// maps, which protection key tags it, which file (if any) backs it, and
// which CLOCK dTLB slot (if any) caches it.
//
// Mappings are demand-paged, as mmap is: a file-backed page is not
// present until the first access touches it (a minor fault), and an
// anonymous page is charged a physical frame at that first touch. RSS
// counts touched pages. The host Frame of an anonymous page, which holds
// its bytes, is materialized only when Load or Store first reads or
// writes them; until then Frame is nil, and simulated accesses, which
// never look at bytes, need none.
//
// PTEs are stored by value inside the radix page table's leaf arrays; the
// pointers handed out by Translate and Peek alias those slots and stay
// valid until the page is unmapped. The struct is 32 bytes (the tlb link
// sits in what would otherwise be padding), which sizes a leaf at
// ~257 KiB.
type PTE struct {
	Frame *Frame
	// Pkey is the MPK protection key tagging the page (0..15). Key 0 is
	// the default key all threads can always access (§5.2).
	Pkey uint8
	// touched marks the page present (faulted in).
	touched bool
	// tlb is the CLOCK dTLB slot caching this entry, plus one (0 = not
	// cached). The TLB keeps it in step with its slots on insert,
	// eviction and invalidation.
	tlb int32
	// backing is non-nil for MAP_SHARED mappings of a Memfd.
	backing *Memfd
	// backOff is the file offset of the mapped page when backing != nil.
	backOff uint64
}

// Touched reports whether the page has been faulted in.
func (p *PTE) Touched() bool { return p.touched }

// AddressSpace is the simulated process address space.
//
// It is not safe for concurrent use; the simulation engine serializes all
// operations, exactly as a single MMU serializes translations for the
// modeled core.
type AddressSpace struct {
	pages pageTable
	// radix is pages as the production radix table, nil over the
	// map-backed test reference; with it, MmapAnon and TranslateRange
	// work leaf by leaf instead of page by page through the interface.
	radix  *radixTable
	frames framePool
	memfds []*Memfd
	// tlb is the fast path when the default CLOCK model is active: the
	// concrete type keeps Lookup inlinable into Translate, which the
	// per-access hot path depends on. tlbAlt carries any other model
	// (exactly one of the two is non-nil).
	tlb    *TLB
	tlbAlt TLBModel
	inj    *faultinject.Injector

	// residentPages counts touched, mapped pages. Linux VmRSS counts
	// present page-table entries, so a physical frame shared by many
	// virtual pages (consolidation, Figure 2) is counted once per
	// mapping — reproducing the paper's over-estimated RSS (§6, §7.5).
	residentPages uint64
	// retainedPages counts in-memory-file frames whose last mapping was
	// removed: Kard does not recycle de-allocated virtual pages (§6),
	// so the backing memory stays charged to the process.
	retainedPages uint64
	metaBytes     uint64
	peakRSS       uint64
	peakPhysMeta  uint64

	// nextPage is the bump pointer of the mmap area. The simulated
	// layout places all mappings above 256 MiB, leaving low addresses
	// free so that nil-like and global sentinel addresses never collide
	// with mappings.
	nextPage Page

	// Counters for the run statistics.
	MmapCalls     uint64
	MunmapCalls   uint64
	ProtectCalls  uint64
	TruncateCalls uint64
	MinorFaults   uint64
}

// NewAddressSpace creates an empty address space with a CLOCK dTLB of
// tlbEntries entries (0 selects DefaultTLBEntries).
func NewAddressSpace(tlbEntries int) *AddressSpace {
	return newAddressSpace(newRadixTable(), NewTLB(tlbEntries))
}

// NewAddressSpaceWithTLB creates an empty address space over the given
// dTLB model (the set-associative two-level model, or a test double).
func NewAddressSpaceWithTLB(tlb TLBModel) *AddressSpace {
	return newAddressSpace(newRadixTable(), tlb)
}

// newAddressSpace is the common constructor; the differential tests call
// it with the map-backed reference page table.
func newAddressSpace(pt pageTable, tlb TLBModel) *AddressSpace {
	as := &AddressSpace{
		pages:    pt,
		nextPage: Page(256 << (20 - PageShift)), // 256 MiB
	}
	as.radix, _ = pt.(*radixTable)
	if clock, ok := tlb.(*TLB); ok {
		as.tlb = clock
	} else {
		as.tlbAlt = tlb
	}
	return as
}

// TLB returns the address space's dTLB model.
func (as *AddressSpace) TLB() TLBModel {
	if as.tlb != nil {
		return as.tlb
	}
	return as.tlbAlt
}

// tlbInsert caches a translation in whichever model is active.
func (as *AddressSpace) tlbInsert(p Page, pte *PTE) {
	if as.tlb != nil {
		as.tlb.Insert(p, pte)
	} else {
		as.tlbAlt.Insert(p, pte)
	}
}

// tlbInvalidate drops a translation from whichever model is active.
func (as *AddressSpace) tlbInvalidate(p Page, pte *PTE) {
	if as.tlb != nil {
		as.tlb.Invalidate(p, pte)
	} else {
		as.tlbAlt.Invalidate(p, pte)
	}
}

// SetInjector attaches a fault-injection layer consulted at the space's
// syscall-like boundaries (mmap, ftruncate, frame allocation). The
// address space is where every layer of the stack meets, so the engine
// parks the run's single injector here and mpk/alloc/core reach it
// through Injector. A nil injector (the default) injects nothing.
func (as *AddressSpace) SetInjector(in *faultinject.Injector) {
	as.inj = in
	as.frames.inj = in
}

// Injector returns the attached fault injector, possibly nil. All
// injector methods are nil-safe, so callers use the result directly.
func (as *AddressSpace) Injector() *faultinject.Injector { return as.inj }

// SetFrameLimit bounds the physical frame pool at the given number of
// frames (0 = unlimited), after which allocation fails with
// ErrFrameExhausted — the simulated machine is out of physical memory.
func (as *AddressSpace) SetFrameLimit(frames uint64) { as.frames.limit = frames }

// reserve returns the base address of n fresh, unmapped virtual pages.
func (as *AddressSpace) reserve(n uint64) Page {
	p := as.nextPage
	as.nextPage += Page(n)
	return p
}

// MmapAnon maps n fresh virtual pages tagged with pkey, returning the base
// address (mmap with MAP_PRIVATE|MAP_ANONYMOUS). Frames are charged on
// first touch. The radix table maps the run leaf by leaf (mapRun), so a
// large mapping costs a bit-set per 64 pages rather than an insert per
// page.
func (as *AddressSpace) MmapAnon(n uint64, pkey uint8) (Addr, error) {
	as.MmapCalls++
	if err := as.inj.Fail(faultinject.SiteMmap); err != nil {
		return 0, fmt.Errorf("mem: mmap of %d pages: %w", n, err)
	}
	base := as.reserve(n)
	if as.radix != nil {
		as.radix.mapRun(base, n, pkey)
		return base.Base(), nil
	}
	for i := uint64(0); i < n; i++ {
		as.pages.insert(base+Page(i), PTE{Pkey: pkey})
	}
	return base.Base(), nil
}

// MmapShared maps n virtual pages onto file f starting at byte offset off
// (mmap with MAP_SHARED). The mapped file range must already exist
// (ftruncate first, as Kard's allocator does). Pages fault in on first
// touch.
func (as *AddressSpace) MmapShared(f *Memfd, off uint64, n uint64, pkey uint8) (Addr, error) {
	as.MmapCalls++
	if err := as.inj.Fail(faultinject.SiteMmap); err != nil {
		return 0, fmt.Errorf("mem: mmap of %s: %w", f.name, err)
	}
	if off%PageSize != 0 {
		return 0, fmt.Errorf("mem: mmap offset %d not page-aligned", off)
	}
	base := as.reserve(n)
	for i := uint64(0); i < n; i++ {
		fr, err := f.frameAt(off + i*PageSize)
		if err != nil {
			for j := uint64(0); j < i; j++ {
				as.unmapPage(base + Page(j))
			}
			// Give the reservation back only if it is still the tail
			// of the bump pointer; if something reserved pages in the
			// meantime, rewinding would hand out their addresses
			// again, so the failed range is left as a permanent hole
			// instead (the space never recycles virtual pages anyway,
			// §6). Today nothing can interleave a reservation here —
			// the guard makes that assumption explicit rather than
			// silently corrupting the address space if it changes.
			if as.nextPage == base+Page(n) {
				as.nextPage = base
			}
			return 0, err
		}
		if fr.mappings == 0 && fr.everMapped {
			as.retainedPages--
		}
		fr.mappings++
		fr.everMapped = true
		as.pages.insert(base+Page(i), PTE{Frame: fr, Pkey: pkey, backing: f, backOff: off + i*PageSize})
	}
	return base.Base(), nil
}

// touch faults the page in: an anonymous page is charged its physical
// frame, and the page starts counting toward RSS. It reports whether this
// was the first touch (a minor fault). Frame-pool exhaustion propagates as
// an error: the simulated machine has no physical page to back the fault.
// The anonymous page's host Frame is left to copy, the only reader of
// frame bytes.
func (as *AddressSpace) touch(pte *PTE) (bool, error) {
	if pte.touched {
		return false, nil
	}
	if pte.backing == nil {
		if err := as.frames.charge(); err != nil {
			return false, err
		}
	}
	pte.touched = true
	as.MinorFaults++
	as.residentPages++
	as.updatePeaks()
	return true, nil
}

func (as *AddressSpace) updatePeaks() {
	if rss := as.ResidentBytes(); rss > as.peakRSS {
		as.peakRSS = rss
	}
	if phys := as.PhysicalBytes(); phys > as.peakPhysMeta {
		as.peakPhysMeta = phys
	}
}

// Munmap removes the mapping of n pages starting at addr. Unmapped holes in
// the range are an error: Kard's allocator never double-frees.
func (as *AddressSpace) Munmap(addr Addr, n uint64) error {
	as.MunmapCalls++
	if Offset(addr) != 0 {
		return fmt.Errorf("mem: munmap address %s not page-aligned", addr)
	}
	base := PageOf(addr)
	for i := uint64(0); i < n; i++ {
		if as.pages.lookup(base+Page(i)) == nil {
			return fmt.Errorf("mem: munmap of unmapped page %s", (base + Page(i)).Base())
		}
	}
	for i := uint64(0); i < n; i++ {
		as.unmapPage(base + Page(i))
	}
	return nil
}

func (as *AddressSpace) unmapPage(p Page) {
	pte := as.pages.lookup(p)
	as.tlbInvalidate(p, pte)
	if pte.Frame != nil {
		pte.Frame.mappings--
		if pte.Frame.mappings == 0 {
			if pte.backing == nil {
				as.frames.release(pte.Frame)
			} else {
				as.retainedPages++
				as.updatePeaks()
			}
		}
	} else if pte.touched {
		as.frames.uncharge() // anonymous, charged at touch, never materialized
	}
	if pte.touched {
		as.residentPages--
	}
	as.pages.remove(p)
}

// Protect tags every page overlapping [addr, addr+size) with pkey. This is
// the page-table half of pkey_mprotect(2); permission bits live in each
// thread's PKRU, not in the page table (§2.2). Unlike mprotect, changing a
// page's key does not flush the TLB, and it does not fault pages in.
func (as *AddressSpace) Protect(addr Addr, size uint64, pkey uint8) error {
	as.ProtectCalls++
	first, last := PageRange(addr, size)
	for p := first; p <= last; p++ {
		pte := as.pages.lookup(p)
		if pte == nil {
			return fmt.Errorf("mem: pkey_mprotect of unmapped page %s", p.Base())
		}
		pte.Pkey = pkey
	}
	return nil
}

// Translate looks up the page-table entry for addr, going through the
// dTLB, faulting the page in if this is its first touch. It reports
// whether the translation missed the TLB and whether a minor fault
// occurred; the caller charges the corresponding penalties. Translation of
// an unmapped address returns an error — the simulated program would have
// segfaulted.
//
// The MRU-hit path is allocation-free and kept to a slot check, with
// everything else out of line in translateSlow: every simulated data
// access funnels through it, so it bounds the evaluation harness's
// throughput.
func (as *AddressSpace) Translate(addr Addr) (pte *PTE, miss, minor bool, err error) {
	p := PageOf(addr)
	if t := as.tlb; t != nil {
		// The CLOCK TLB's most-recently-used slot, checked here
		// without touching the page table: this path runs once per
		// simulated access.
		if m := uint(t.mru); m < uint(len(t.slots)) {
			if s := &t.slots[m]; s.page == p && s.present {
				t.hits++
				s.used = true
				return s.pte, false, false, nil
			}
		}
	}
	return as.translateSlow(addr, p)
}

// translateSlow serves every translation the MRU slot does not: a dTLB
// probe through the page's entry, then the page walk on a miss. The probe
// reads the table with peek, so the walk-depth histogram counts only the
// walks a miss makes, as a hardware page walker would.
func (as *AddressSpace) translateSlow(addr Addr, p Page) (pte *PTE, miss, minor bool, err error) {
	pte = as.pages.peek(p)
	if t := as.tlb; t != nil {
		if t.Lookup(p, pte) {
			return pte, false, false, nil
		}
	} else if as.tlbAlt.Lookup(p, pte) {
		return pte, false, false, nil
	}
	pte = as.pages.lookup(p)
	if pte == nil {
		return nil, true, false, fmt.Errorf("mem: access to unmapped address %s", addr)
	}
	minor, err = as.touch(pte)
	if err != nil {
		return nil, true, false, fmt.Errorf("mem: faulting in %s: %w", addr, err)
	}
	as.tlbInsert(p, pte)
	return pte, true, minor, nil
}

// TranslateRange translates every page of [addr, addr+size) in ascending
// order, with exactly the effects of calling Translate on each page — at
// addr for the first page and at its base address for every later one:
// the same dTLB hits, misses, used bits, MRU slot and evictions, the same
// walk-depth counts, the same frame-pool and fault-injector calls in the
// same order, and the same error. It returns how many pages translated
// and how many of those missed the dTLB or took a minor fault; after an
// error the counts cover only the pages before the failing one, which the
// caller charges as it would have charged them page by page.
//
// Over the radix table with the CLOCK TLB, the run is walked leaf by
// leaf: the MRU slot serves the first page as in Translate, one walk
// finds each leaf, and a page whose entry is linked to a TLB slot is a
// hit that costs a presence-bit test, the link, and the slot's used bit.
// A miss still counts its full walk, as Translate's would. Any other
// table or dTLB model translates page by page through Translate, which
// is the reference the differential test holds the run walk to.
func (as *AddressSpace) TranslateRange(addr Addr, size uint64) (pages, misses, minors uint64, err error) {
	first, last := PageRange(addr, size)
	rt, t := as.radix, as.tlb
	if rt == nil || t == nil {
		for p := first; ; p++ {
			_, miss, minor, err := as.Translate(runAddr(addr, first, p))
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
			if p == last {
				return pages, misses, minors, nil
			}
		}
	}
	p := first
	if m := uint(t.mru); m < uint(len(t.slots)) {
		// The MRU slot serves the first page without a walk, as it
		// does in Translate: most accesses touch a single page again.
		if s := &t.slots[m]; s.page == p && s.present {
			t.hits++
			s.used = true
			if p == last {
				return 1, 0, 0, nil
			}
			pages, p = 1, p+1
		}
	}
	for ; ; p++ {
		leaf := rt.leafOf(p)
		if leaf == nil {
			t.misses++
			rt.lookup(p) // counts the failed walk's depth
			return pages, misses, minors, fmt.Errorf("mem: access to unmapped address %s", runAddr(addr, first, p))
		}
		end := min(p|radixMask, last)
		for ; ; p++ {
			i := p & radixMask
			if !leaf.has(i) {
				t.misses++
				rt.depths[3]++
				return pages, misses, minors, fmt.Errorf("mem: access to unmapped address %s", runAddr(addr, first, p))
			}
			pte := &leaf.ptes[i]
			if s := pte.tlb; s != 0 {
				t.hits++
				t.slots[s-1].used = true
				t.mru = int(s - 1)
			} else {
				t.misses++
				rt.depths[3]++
				minor, err := as.touch(pte)
				if err != nil {
					return pages, misses, minors, fmt.Errorf("mem: faulting in %s: %w", runAddr(addr, first, p), err)
				}
				t.Insert(p, pte)
				misses++
				if minor {
					minors++
				}
			}
			pages++
			if p == end {
				break
			}
		}
		if p == last {
			return pages, misses, minors, nil
		}
	}
}

// runAddr is the address Translate sees for page p of a run that starts
// at addr on page first.
func runAddr(addr Addr, first, p Page) Addr {
	if p == first {
		return addr
	}
	return p.Base()
}

// Peek returns the page-table entry for addr without touching the TLB or
// faulting the page in. Kard's access hook uses it to read the page's
// protection key: a pure read with no counter or telemetry side effects,
// so an inspection never shows up as a modeled walk.
func (as *AddressSpace) Peek(addr Addr) (*PTE, bool) {
	pte := as.pages.peek(PageOf(addr))
	return pte, pte != nil
}

// Mapped reports whether the page containing addr is mapped. Like Peek it
// is side-effect-free.
func (as *AddressSpace) Mapped(addr Addr) bool {
	return as.pages.peek(PageOf(addr)) != nil
}

// MappedPages returns the number of mapped virtual pages.
func (as *AddressSpace) MappedPages() int { return as.pages.size() }

// ResidentPages returns the number of touched, mapped pages.
func (as *AddressSpace) ResidentPages() uint64 { return as.residentPages }

// ResidentBytes returns the current resident set size in bytes: touched
// mapped pages (counted per mapping, as VmRSS does) plus metadata charged
// by upper layers.
func (as *AddressSpace) ResidentBytes() uint64 {
	return (as.residentPages+as.retainedPages)*PageSize + as.metaBytes
}

// PhysicalBytes returns the distinct physical frames plus metadata — the
// footprint consolidation actually conserves.
func (as *AddressSpace) PhysicalBytes() uint64 { return as.frames.resident + as.metaBytes }

// PeakResidentBytes returns the peak RSS in bytes, the quantity Table 3
// reports as peak memory.
func (as *AddressSpace) PeakResidentBytes() uint64 { return as.peakRSS }

// PeakPhysicalBytes returns the peak physical footprint.
func (as *AddressSpace) PeakPhysicalBytes() uint64 { return as.peakPhysMeta }

// ChargeMetadata records delta bytes of bookkeeping memory (allocator and
// detector metadata, §7.5) against the process RSS (negative to release).
func (as *AddressSpace) ChargeMetadata(delta int64) {
	if delta < 0 {
		d := uint64(-delta)
		if d > as.metaBytes {
			d = as.metaBytes
		}
		as.metaBytes -= d
		return
	}
	as.metaBytes += uint64(delta)
	as.updatePeaks()
}

// Store writes b through the simulated memory at addr, faulting pages in.
// The byte range must be mapped. Store bypasses protection checks —
// callers that want checked access go through the engine, which consults
// MPK first — but it translates through the dTLB model like any other
// access, so bulk data movement does not skew the reported miss rates.
func (as *AddressSpace) Store(addr Addr, b []byte) error {
	return as.copy(addr, uint64(len(b)), func(frame []byte, src, n uint64) {
		copy(frame, b[src:src+n])
	})
}

// Load reads len(b) bytes from addr into b.
func (as *AddressSpace) Load(addr Addr, b []byte) error {
	return as.copy(addr, uint64(len(b)), func(frame []byte, src, n uint64) {
		copy(b[src:src+n], frame)
	})
}

// copy walks the page-spanning byte range [addr, addr+size), invoking f for
// each in-frame span with the frame bytes and the running source offset.
// Each touched page translates through the dTLB (charging the model's
// hit/miss counters), the same lookup path every engine access takes.
// An anonymous page gets its host Frame here, on the first copy; its
// physical frame was already charged when Translate faulted it in.
func (as *AddressSpace) copy(addr Addr, size uint64, f func(frame []byte, src, n uint64)) error {
	var done uint64
	for done < size {
		pte, _, _, err := as.Translate(addr + Addr(done))
		if err != nil {
			return err
		}
		if pte.Frame == nil {
			pte.Frame = as.frames.take()
			pte.Frame.mappings++
		}
		off := Offset(addr + Addr(done))
		n := PageSize - off
		if n > size-done {
			n = size - done
		}
		// The offset within the frame equals the offset within the
		// page for anonymous pages and whole-page shared mappings.
		f(pte.Frame.bytes()[off:off+n], done, n)
		done += n
	}
	return nil
}

// FlushObs publishes the space's per-run counters — TLB hits/misses,
// syscall tallies, minor faults, and the radix-walk depth distribution —
// to the process-wide obs metric set. The space's own counters are plain
// fields updated on the engine-serialized hot path (the PR-4 gate forbids
// atomics there); the engine calls this exactly once, at run teardown on
// every exit path, so the global counters see each run's totals without
// double counting.
func (as *AddressSpace) FlushObs() {
	m := obs.Std
	tlb := as.TLB()
	m.MemTLBHits.Add(tlb.Hits())
	m.MemTLBMisses.Add(tlb.Misses())
	m.MemMinorFaults.Add(as.MinorFaults)
	m.MemMmapCalls.Add(as.MmapCalls)
	m.MemMunmapCalls.Add(as.MunmapCalls)
	m.MemProtectCalls.Add(as.ProtectCalls)
	m.MemTruncateCalls.Add(as.TruncateCalls)
	for i, n := range as.pages.walkDepths() {
		m.MemRadixDepth.ObserveN(float64(i+1), n)
	}
}

// PagesWithKey returns the mapped pages currently tagged with pkey, sorted.
// It exists for tests and debugging tools. The radix walk visits pages in
// ascending order, so no sort is needed.
func (as *AddressSpace) PagesWithKey(pkey uint8) []Page {
	var out []Page
	as.pages.walk(func(p Page, pte *PTE) bool {
		if pte.Pkey == pkey {
			out = append(out, p)
		}
		return true
	})
	return out
}
