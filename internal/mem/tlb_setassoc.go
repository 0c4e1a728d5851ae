package mem

// SetAssocTLB models the physical two-level dTLB geometry of the paper's
// evaluation machine (Xeon Silver 4110): a 64-entry 8-way set-associative
// L1 dTLB backed by a 1536-entry 12-way L2 STLB for 4 KiB pages. It is
// array-backed and allocation-free: sets are indexed by the low page-number
// bits and ways are replaced LRU within a set, as the hardware approximates.
//
// The hierarchy is inclusive: every L1 entry is also in L2, and an L2
// eviction back-invalidates L1. A lookup that hits either level counts as
// a hit (Misses counts page walks, which is what the miss-rate column of
// Table 3 responds to); L1Hits/L2Hits expose the split for finer analysis.
//
// SetAssocTLB is selected with sim.Config.TLBModel = "setassoc" (and
// kard.Config.TLBModel). It is not the default: the flat CLOCK model's
// hit/miss sequences pin the repository's golden outputs, so switching the
// default would silently move every reported statistic.
type SetAssocTLB struct {
	l1Sets, l1Ways int
	l2Sets, l2Ways int
	l1             []saEntry // l1Sets × l1Ways, way-major within a set
	l2             []saEntry // l2Sets × l2Ways

	// tick is a logical LRU clock: it advances once per entry touch, so
	// replacement depends only on the access sequence (deterministic).
	tick uint64

	hits, misses   uint64
	l1Hits, l2Hits uint64
}

type saEntry struct {
	page    Page
	tick    uint64
	present bool
}

// Default geometry: the Xeon Silver 4110's per-core dTLB hierarchy.
const (
	setAssocL1Entries = 64
	setAssocL1Ways    = 8
	setAssocL2Entries = 1536
	setAssocL2Ways    = 12
)

// NewSetAssocTLB returns the two-level set-associative dTLB with the
// evaluation machine's geometry (64-entry 8-way L1, 1536-entry 12-way L2).
func NewSetAssocTLB() *SetAssocTLB {
	return newSetAssoc(setAssocL1Entries, setAssocL1Ways, setAssocL2Entries, setAssocL2Ways)
}

// newSetAssoc builds a custom geometry (entries must be divisible by ways,
// and the set counts must be powers of two). Tests use small geometries to
// force evictions cheaply.
func newSetAssoc(l1Entries, l1Ways, l2Entries, l2Ways int) *SetAssocTLB {
	l1Sets, l2Sets := l1Entries/l1Ways, l2Entries/l2Ways
	if l1Sets*l1Ways != l1Entries || l2Sets*l2Ways != l2Entries ||
		l1Sets&(l1Sets-1) != 0 || l2Sets&(l2Sets-1) != 0 || l1Sets == 0 || l2Sets == 0 {
		panic("mem: set-associative TLB geometry must be ways × power-of-two sets")
	}
	return &SetAssocTLB{
		l1Sets: l1Sets, l1Ways: l1Ways,
		l2Sets: l2Sets, l2Ways: l2Ways,
		l1: make([]saEntry, l1Entries),
		l2: make([]saEntry, l2Entries),
	}
}

// set returns the way slice of the set containing p.
func saSet(entries []saEntry, sets, ways int, p Page) []saEntry {
	i := int(uint64(p)&uint64(sets-1)) * ways
	return entries[i : i+ways : i+ways]
}

// find returns the way holding p within set, or -1.
func saFind(set []saEntry, p Page) int {
	for i := range set {
		if set[i].present && set[i].page == p {
			return i
		}
	}
	return -1
}

// victim returns the way to replace: an empty way if any, else the LRU way.
func saVictim(set []saEntry) int {
	v, oldest := 0, ^uint64(0)
	for i := range set {
		if !set[i].present {
			return i
		}
		if set[i].tick < oldest {
			v, oldest = i, set[i].tick
		}
	}
	return v
}

// Lookup probes L1, then the STLB. An STLB hit promotes the translation
// into L1 (dropping the L1 LRU way, which inclusion keeps resident in L2).
// The sets are tagged by page, so the entry is not consulted: an unmapped
// page was invalidated at munmap, or never inserted, and misses.
func (t *SetAssocTLB) Lookup(p Page, _ *PTE) bool {
	t.tick++
	s1 := saSet(t.l1, t.l1Sets, t.l1Ways, p)
	if w := saFind(s1, p); w >= 0 {
		s1[w].tick = t.tick
		t.hits++
		t.l1Hits++
		return true
	}
	s2 := saSet(t.l2, t.l2Sets, t.l2Ways, p)
	if w := saFind(s2, p); w >= 0 {
		s2[w].tick = t.tick
		t.hits++
		t.l2Hits++
		s1[saVictim(s1)] = saEntry{page: p, tick: t.tick, present: true}
		return true
	}
	t.misses++
	return false
}

// Insert fills the translation into both levels after a page walk. The L2
// victim, if valid, is back-invalidated from L1 to preserve inclusion.
func (t *SetAssocTLB) Insert(p Page, _ *PTE) {
	t.tick++
	s2 := saSet(t.l2, t.l2Sets, t.l2Ways, p)
	w2 := saFind(s2, p)
	if w2 < 0 {
		w2 = saVictim(s2)
		if s2[w2].present {
			t.invalidateL1(s2[w2].page)
		}
	}
	s2[w2] = saEntry{page: p, tick: t.tick, present: true}
	s1 := saSet(t.l1, t.l1Sets, t.l1Ways, p)
	w1 := saFind(s1, p)
	if w1 < 0 {
		w1 = saVictim(s1)
	}
	s1[w1] = saEntry{page: p, tick: t.tick, present: true}
}

func (t *SetAssocTLB) invalidateL1(p Page) {
	s1 := saSet(t.l1, t.l1Sets, t.l1Ways, p)
	if w := saFind(s1, p); w >= 0 {
		s1[w] = saEntry{}
	}
}

// Invalidate drops the translation for p from both levels (on munmap).
func (t *SetAssocTLB) Invalidate(p Page, _ *PTE) {
	t.invalidateL1(p)
	s2 := saSet(t.l2, t.l2Sets, t.l2Ways, p)
	if w := saFind(s2, p); w >= 0 {
		s2[w] = saEntry{}
	}
}

// Hits returns translations served by either level.
func (t *SetAssocTLB) Hits() uint64 { return t.hits }

// Misses returns translations that required a page walk.
func (t *SetAssocTLB) Misses() uint64 { return t.misses }

// L1Hits returns translations served by the first-level dTLB.
func (t *SetAssocTLB) L1Hits() uint64 { return t.l1Hits }

// L2Hits returns translations served by the STLB after an L1 miss.
func (t *SetAssocTLB) L2Hits() uint64 { return t.l2Hits }

// MissRate returns misses / (hits + misses), or 0 before any translation.
func (t *SetAssocTLB) MissRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.misses) / float64(total)
}

// ResetCounters zeroes the hit/miss counters without dropping translations.
func (t *SetAssocTLB) ResetCounters() {
	t.hits, t.misses, t.l1Hits, t.l2Hits = 0, 0, 0, 0
}
