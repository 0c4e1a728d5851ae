package mem

import (
	"fmt"
	"testing"
)

// tlbDriver drives a TLB model directly, standing in for the page table:
// it hands out one PTE per page and passes it with every call, as the
// address space does. A page must keep its entry, because the CLOCK TLB
// links its slots through it.
type tlbDriver struct {
	TLBModel
	ptes map[Page]*PTE
}

func newTLBDriver(m TLBModel) *tlbDriver {
	return &tlbDriver{TLBModel: m, ptes: map[Page]*PTE{}}
}

// pte returns page p's entry, creating it on first use.
func (d *tlbDriver) pte(p Page) *PTE {
	e := d.ptes[p]
	if e == nil {
		e = &PTE{Pkey: uint8(p % 16)}
		d.ptes[p] = e
	}
	return e
}

func (d *tlbDriver) lookup(p Page) bool { return d.Lookup(p, d.pte(p)) }
func (d *tlbDriver) insert(p Page)      { d.Insert(p, d.pte(p)) }
func (d *tlbDriver) invalidate(p Page)  { d.Invalidate(p, d.pte(p)) }

// models returns fresh instances of every TLB model at a small, comparable
// scale: a 4-entry CLOCK TLB and a 4-entry single-set L1 with a larger L2.
func models(l1 int) map[string]*tlbDriver {
	return map[string]*tlbDriver{
		"clock":    newTLBDriver(NewTLB(l1)),
		"setassoc": newTLBDriver(newSetAssoc(l1, l1, 4*l1, l1)),
	}
}

// TestTLBInvalidateThenInsertReusesSlot: invalidating a present entry must
// free its slot so a subsequent insert fills it without evicting anyone
// else.
func TestTLBInvalidateThenInsertReusesSlot(t *testing.T) {
	for name, tlb := range models(4) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 4; i++ {
				if tlb.lookup(Page(i)) {
					t.Fatalf("page %d present in empty TLB", i)
				}
				tlb.insert(Page(i))
			}
			tlb.invalidate(2)
			if tlb.lookup(2) {
				t.Fatal("invalidated page still present")
			}
			tlb.insert(100)
			// Pages 0, 1, 3 must all have survived: the freed slot
			// absorbed the insert.
			for _, p := range []Page{0, 1, 3, 100} {
				if !tlb.lookup(p) {
					t.Errorf("page %d evicted by insert into a freed slot", p)
				}
			}
		})
	}
}

// TestTLBInvalidateAbsent: invalidating a page that is not cached must be
// a harmless no-op.
func TestTLBInvalidateAbsent(t *testing.T) {
	for name, tlb := range models(4) {
		t.Run(name, func(t *testing.T) {
			tlb.insert(1)
			tlb.invalidate(99)
			if !tlb.lookup(1) {
				t.Error("unrelated invalidate dropped a live entry")
			}
		})
	}
}

// TestCLOCKEvictAllUsed: when every slot's used bit is set, the CLOCK hand
// must sweep the whole ring (clearing used bits) and evict the slot it
// started at — the documented second-chance behavior.
func TestCLOCKEvictAllUsed(t *testing.T) {
	tlb := newTLBDriver(NewTLB(4))
	for i := 0; i < 4; i++ {
		tlb.insert(Page(i))
	}
	// Every insert set its slot's used bit, so the hand (at slot 0 after
	// wrapping) sweeps all four, clears them, and evicts page 0.
	tlb.insert(4)
	if tlb.lookup(0) {
		t.Error("page 0 should have been evicted by the full sweep")
	}
	for _, p := range []Page{1, 2, 3, 4} {
		if !tlb.lookup(p) {
			t.Errorf("page %d lost; only page 0 should have been evicted", p)
		}
	}
	// The sweep cleared the used bits of 1..3; the Lookups above re-set
	// them, plus page 4's insert bit. The next insert therefore sweeps
	// again and evicts the hand's next slot (page 1).
	tlb.insert(5)
	if tlb.lookup(1) {
		t.Error("page 1 should have been the second eviction")
	}
}

// TestTLBResetCountersMidRun: zeroing the counters must not drop
// translations — the cached pages keep hitting afterwards.
func TestTLBResetCountersMidRun(t *testing.T) {
	for name, tlb := range models(4) {
		t.Run(name, func(t *testing.T) {
			tlb.lookup(7) // miss
			tlb.insert(7)
			tlb.lookup(7) // hit
			if tlb.Hits() != 1 || tlb.Misses() != 1 {
				t.Fatalf("hits=%d misses=%d before reset, want 1/1", tlb.Hits(), tlb.Misses())
			}
			tlb.ResetCounters()
			if tlb.Hits() != 0 || tlb.Misses() != 0 {
				t.Fatal("ResetCounters did not zero counters")
			}
			if !tlb.lookup(7) {
				t.Fatal("ResetCounters dropped a cached translation")
			}
			if tlb.Hits() != 1 || tlb.Misses() != 0 {
				t.Errorf("hits=%d misses=%d after reset+hit, want 1/0", tlb.Hits(), tlb.Misses())
			}
			if tlb.MissRate() != 0 {
				t.Errorf("miss rate %v after only hits, want 0", tlb.MissRate())
			}
		})
	}
}

// TestTLBReinsertUpdatesEntry: inserting a page that is already cached
// must refresh its entry in place, not consume a second slot.
func TestTLBReinsertUpdatesEntry(t *testing.T) {
	for name, tlb := range models(4) {
		t.Run(name, func(t *testing.T) {
			tlb.insert(5)
			tlb.insert(5)
			if !tlb.lookup(5) {
				t.Error("re-insert did not replace the cached PTE")
			}
			// Fill the remaining capacity; nothing should evict page 5's
			// single slot prematurely.
			for i := 0; i < 3; i++ {
				tlb.insert(Page(10 + i))
			}
			if !tlb.lookup(5) {
				t.Error("double-insert consumed two slots")
			}
		})
	}
}

// TestCLOCKIndexChurn stresses the slot ↔ PTE links: a long interleaving
// of inserts, invalidates, and evictions must never lose or resurrect
// entries. A shadow map mirrors every decision the TLB makes (via its own
// Insert/Invalidate calls), so a link left stale on either side surfaces
// as a presence mismatch.
func TestCLOCKIndexChurn(t *testing.T) {
	const capacity = 16
	tlb := newTLBDriver(NewTLB(capacity))
	shadow := map[Page]bool{}
	rng := uint64(0x243f6a8885a308d3)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	evictions := 0
	for i := 0; i < 20000; i++ {
		p := Page(next(64))
		switch next(3) {
		case 0:
			was := tlb.lookup(p)
			if was != shadow[p] {
				t.Fatalf("op %d: lookup(%d) = %v, shadow %v", i, p, was, shadow[p])
			}
		case 1:
			if !shadow[p] {
				tlb.insert(p)
				shadow[p] = true
				// The hand may evict a present page even below capacity
				// (CLOCK replaces at the hand, it does not hunt for free
				// slots); mirror whatever the TLB decided by diffing.
				for q := range shadow {
					if q != p && tlb.pte(q).tlb == 0 {
						delete(shadow, q)
						evictions++
					}
				}
				if len(shadow) > capacity {
					t.Fatalf("op %d: %d pages cached in a %d-entry TLB", i, len(shadow), capacity)
				}
			}
		case 2:
			if shadow[p] {
				tlb.invalidate(p)
				delete(shadow, p)
			}
		}
	}
	if evictions == 0 {
		t.Fatal("churn never triggered an eviction; test is not exercising the links")
	}
	if err := checkTLBLinks(tlb.TLBModel.(*TLB), func(fn func(Page, *PTE) bool) {
		for p, pte := range tlb.ptes {
			if !fn(p, pte) {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSetAssocConflictEviction: pages mapping to the same set evict within
// the set only, LRU first.
func TestSetAssocConflictEviction(t *testing.T) {
	// 2 sets × 2 ways L1, 2 sets × 4 ways L2.
	tlb := newSetAssoc(4, 2, 8, 4)
	d := newTLBDriver(tlb)
	// Pages 0, 2, 4, 6 all land in set 0 of both levels.
	for i := 0; i < 3; i++ {
		d.insert(Page(2 * i))
	}
	// L1 set 0 holds the two most recent (2, 4); page 0 fell to L2 only.
	if !d.lookup(2) || !d.lookup(4) {
		t.Fatal("recent pages missing")
	}
	l2Before := tlb.L2Hits()
	if !d.lookup(0) {
		t.Fatal("page 0 should still hit in the STLB")
	}
	if tlb.L2Hits() != l2Before+1 {
		t.Error("page 0 should have been served by the STLB, not L1")
	}
	// Odd pages land in set 1 and must not disturb set 0.
	d.insert(1)
	d.insert(3)
	if !d.lookup(2) && !d.lookup(4) {
		t.Error("set-1 inserts evicted set-0 entries")
	}
}

// TestSetAssocInclusion: an L2 eviction back-invalidates L1, so no page
// can hit L1 after falling out of the STLB.
func TestSetAssocInclusion(t *testing.T) {
	// 1 set × 2 ways L1, 1 set × 2 ways L2: tiny, fully conflicting.
	tlb := newTLBDriver(newSetAssoc(2, 2, 2, 2))
	tlb.insert(10)
	tlb.insert(11)
	// Inserting a third page evicts LRU page 10 from L2; inclusion
	// requires it to leave L1 too.
	tlb.insert(12)
	if tlb.lookup(10) {
		t.Error("page 10 survived its STLB eviction (inclusion violated)")
	}
	if !tlb.lookup(11) || !tlb.lookup(12) {
		t.Error("resident pages lost")
	}
}

// TestSetAssocDefaultGeometry pins the paper machine's sizes.
func TestSetAssocDefaultGeometry(t *testing.T) {
	tlb := NewSetAssocTLB()
	if got := len(tlb.l1); got != 64 {
		t.Errorf("L1 entries = %d, want 64", got)
	}
	if got := len(tlb.l2); got != 1536 {
		t.Errorf("L2 entries = %d, want 1536", got)
	}
	if tlb.l1Ways != 8 || tlb.l2Ways != 12 {
		t.Errorf("ways = %d/%d, want 8/12", tlb.l1Ways, tlb.l2Ways)
	}
	// 65 distinct pages overflow the 64-entry L1 but sit comfortably in
	// the STLB: everything must still hit.
	d := newTLBDriver(tlb)
	for i := 0; i < 65; i++ {
		d.insert(Page(i))
	}
	for i := 0; i < 65; i++ {
		if !d.lookup(Page(i)) {
			t.Fatalf("page %d missed with a warm STLB", i)
		}
	}
	if tlb.Misses() != 0 {
		t.Errorf("misses = %d probing a warm STLB, want 0", tlb.Misses())
	}
}

// TestAddressSpaceWithSetAssocTLB: the knob end-to-end — an address space
// over the two-level model translates correctly and counts L1/L2 hits.
func TestAddressSpaceWithSetAssocTLB(t *testing.T) {
	tlb := NewSetAssocTLB()
	as := NewAddressSpaceWithTLB(tlb)
	a, err := as.MmapAnon(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, miss, minor, err := as.Translate(a); err != nil || !miss || !minor {
		t.Fatalf("cold translate: miss=%v minor=%v err=%v, want true/true/nil", miss, minor, err)
	}
	if _, miss, _, err := as.Translate(a + 8); err != nil || miss {
		t.Fatalf("warm translate missed (err=%v)", err)
	}
	if as.TLB() != TLBModel(tlb) {
		t.Error("TLB() does not return the configured model")
	}
	if tlb.L1Hits() == 0 {
		t.Error("warm translate did not count an L1 hit")
	}
	if err := as.Munmap(a, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := as.Translate(a); err == nil {
		t.Error("translation survived munmap under the set-associative model")
	}
}

// TestBadSetAssocGeometry: invalid geometries must be rejected loudly.
func TestBadSetAssocGeometry(t *testing.T) {
	for _, g := range [][4]int{{5, 2, 8, 4}, {6, 2, 8, 4}, {4, 2, 9, 3}} {
		g := g
		t.Run(fmt.Sprint(g), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v accepted", g)
				}
			}()
			newSetAssoc(g[0], g[1], g[2], g[3])
		})
	}
}
