package mem

// DefaultTLBEntries is the default dTLB capacity. The Xeon Silver 4110 of
// the evaluation machine has a 64-entry L1 dTLB and a 1536-entry L2 STLB
// for 4 KiB pages; a single flat structure of the combined size is a
// standard first-order model and is what the miss-rate column of Table 3
// responds to. The two-level set-associative geometry itself is modeled
// by SetAssocTLB, selectable via sim.Config.TLBModel.
const DefaultTLBEntries = 1536

// TLBModel is the interface every dTLB model implements. The CLOCK TLB is
// the default (its hit/miss sequences pin the golden outputs); SetAssocTLB
// models the physical two-level geometry.
//
// Every method takes the page together with its page-table entry, which
// the address space has already walked to (nil for an unmapped page). A
// model may tag its entries by page, as SetAssocTLB does, or link them
// through the PTE, as the CLOCK TLB does.
type TLBModel interface {
	// Lookup reports whether the translation for p is cached, charging
	// the hit/miss counters. A nil pte (p is unmapped) is a miss.
	Lookup(p Page, pte *PTE) bool
	// Insert caches the translation of p to pte after a miss, evicting
	// if full.
	Insert(p Page, pte *PTE)
	// Invalidate drops the translation for p (on munmap). It must run
	// while pte still describes p, before the page table removes it.
	Invalidate(p Page, pte *PTE)
	// Hits returns the number of translations served from the TLB.
	Hits() uint64
	// Misses returns the number of translations that required a page walk.
	Misses() uint64
	// MissRate returns misses / (hits + misses), or 0 before any
	// translation.
	MissRate() float64
	// ResetCounters zeroes the hit/miss counters without dropping
	// translations.
	ResetCounters()
}

// TLB is a first-order dTLB model: a fixed capacity of page → entry slots
// with CLOCK (second-chance) replacement. CLOCK approximates LRU closely
// at a fraction of the bookkeeping cost, which matters because every
// simulated access translates through it.
//
// The implementation is allocation-free and needs no page → slot
// directory: each slot records the PTE it caches, and that PTE records
// the slot (PTE.tlb), so a probe is one field read on the entry the page
// walk already found, and an eviction or invalidation clears the link on
// both sides. A most-recently-used slot hint serves the overwhelmingly
// common translate-the-same-page-again case without touching the page
// table. Every replacement decision is identical to the original
// map-backed CLOCK implementation (the hand, the used bits and the hint
// are unchanged), so hit/miss sequences, and therefore every golden
// statistic, are preserved bit-for-bit.
type TLB struct {
	capacity int
	slots    []tlbSlot
	hand     int
	// mru is the slot index of the most recent hit or insert. The fast
	// path validates it against the requested page, so a stale hint
	// (evicted or reused slot) falls through to the PTE probe — no
	// explicit invalidation is needed.
	mru int

	hits   uint64
	misses uint64
}

// tlbSlot is one cached translation. While present, pte.tlb names this
// slot (index + 1).
type tlbSlot struct {
	page    Page
	pte     *PTE
	used    bool
	present bool
}

// NewTLB returns a TLB with the given capacity (0 selects
// DefaultTLBEntries).
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultTLBEntries
	}
	return &TLB{
		capacity: capacity,
		slots:    make([]tlbSlot, capacity),
		mru:      -1,
	}
}

// Lookup reports whether pte's translation is cached. Hit/miss counters
// feed the dTLB-miss-rate column of Table 3. The page is implied by the
// entry: a PTE belongs to exactly one page of one address space.
func (t *TLB) Lookup(_ Page, pte *PTE) bool {
	if pte == nil || pte.tlb == 0 {
		t.misses++
		return false
	}
	i := int(pte.tlb - 1)
	t.hits++
	t.slots[i].used = true
	t.mru = i
	return true
}

// Insert caches pte as the translation of p after a miss, evicting with
// CLOCK if full.
func (t *TLB) Insert(p Page, pte *PTE) {
	if pte.tlb != 0 {
		t.slots[pte.tlb-1].used = true
		return
	}
	for {
		s := &t.slots[t.hand]
		if !s.present {
			break
		}
		if !s.used {
			s.pte.tlb = 0
			s.present = false
			break
		}
		s.used = false
		t.advance()
	}
	t.slots[t.hand] = tlbSlot{page: p, pte: pte, used: true, present: true}
	pte.tlb = int32(t.hand) + 1
	t.mru = t.hand
	t.advance()
}

// advance moves the CLOCK hand to the next slot, wrapping with a compare:
// a modulo by the capacity, which is not a constant, costs a division on
// every step of the sweep.
func (t *TLB) advance() {
	t.hand++
	if t.hand == t.capacity {
		t.hand = 0
	}
}

// Invalidate drops pte's translation (on munmap).
func (t *TLB) Invalidate(_ Page, pte *PTE) {
	if pte == nil || pte.tlb == 0 {
		return
	}
	t.slots[pte.tlb-1] = tlbSlot{}
	pte.tlb = 0
}

// Hits returns the number of translations served from the TLB.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of translations that required a page walk.
func (t *TLB) Misses() uint64 { return t.misses }

// MissRate returns misses / (hits + misses), or 0 before any translation.
func (t *TLB) MissRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.misses) / float64(total)
}

// ResetCounters zeroes the hit/miss counters without dropping translations.
// The harness calls it after warm-up so steady-state rates are reported.
func (t *TLB) ResetCounters() { t.hits, t.misses = 0, 0 }
