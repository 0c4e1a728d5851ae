package mem

import "fmt"

// refTLB is the page-keyed CLOCK reference kept for the differential test:
// the same capacity, hand and used-bit replacement as TLB, with a Go map
// as its page → slot directory instead of the slot index kept in each PTE.
// It never reads or writes PTE.tlb, so a disagreement with TLB is a fault
// in the links.
type refTLB struct {
	slots        []tlbSlot // pte stays nil
	hand         int
	dir          map[Page]int
	hits, misses uint64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{slots: make([]tlbSlot, capacity), dir: map[Page]int{}}
}

func (t *refTLB) Lookup(p Page, _ *PTE) bool {
	if i, ok := t.dir[p]; ok {
		t.hits++
		t.slots[i].used = true
		return true
	}
	t.misses++
	return false
}

func (t *refTLB) Insert(p Page, _ *PTE) {
	if i, ok := t.dir[p]; ok {
		t.slots[i].used = true
		return
	}
	for {
		s := &t.slots[t.hand]
		if !s.present {
			break
		}
		if !s.used {
			delete(t.dir, s.page)
			s.present = false
			break
		}
		s.used = false
		t.hand = (t.hand + 1) % len(t.slots)
	}
	t.slots[t.hand] = tlbSlot{page: p, used: true, present: true}
	t.dir[p] = t.hand
	t.hand = (t.hand + 1) % len(t.slots)
}

func (t *refTLB) Invalidate(p Page, _ *PTE) {
	if i, ok := t.dir[p]; ok {
		t.slots[i] = tlbSlot{}
		delete(t.dir, p)
	}
}

func (t *refTLB) Hits() uint64   { return t.hits }
func (t *refTLB) Misses() uint64 { return t.misses }

func (t *refTLB) MissRate() float64 {
	if t.hits+t.misses == 0 {
		return 0
	}
	return float64(t.misses) / float64(t.hits+t.misses)
}

func (t *refTLB) ResetCounters() { t.hits, t.misses = 0, 0 }

// cachedPages returns the pages a CLOCK slot array holds, in slot order
// (empty slots skipped).
func cachedPages(slots []tlbSlot) []Page {
	var out []Page
	for _, s := range slots {
		if s.present {
			out = append(out, s.page)
		}
	}
	return out
}

// checkTLBLinks verifies that the CLOCK TLB's slots and the PTEs that walk
// visits name each other: every present slot's PTE points back to that
// slot, and every PTE that names a slot is the entry that slot holds, for
// the page the slot holds.
func checkTLBLinks(t *TLB, walk func(fn func(Page, *PTE) bool)) error {
	for i, s := range t.slots {
		if s.present && s.pte.tlb != int32(i)+1 {
			return fmt.Errorf("slot %d caches page %d, but its PTE names slot %d", i, s.page, s.pte.tlb-1)
		}
	}
	var err error
	walk(func(p Page, pte *PTE) bool {
		if pte.tlb == 0 {
			return true
		}
		i := int(pte.tlb - 1)
		if i >= len(t.slots) {
			err = fmt.Errorf("page %d names slot %d of a %d-slot TLB", p, i, len(t.slots))
			return false
		}
		if s := t.slots[i]; !s.present || s.pte != pte || s.page != p {
			err = fmt.Errorf("page %d names slot %d, which holds page %d (present=%v, same PTE=%v)",
				p, i, s.page, s.present, s.pte == pte)
			return false
		}
		return true
	})
	return err
}
