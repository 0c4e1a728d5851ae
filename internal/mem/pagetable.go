package mem

import "math/bits"

// pageTable is the page-number → PTE store behind AddressSpace. The
// production implementation is the sparse radix table below; a flat
// map-backed reference implementation lives in the test files, and a
// differential test drives both through identical operation sequences to
// prove the radix table preserves every observable statistic.
//
// PTE pointers returned by lookup and insert stay valid until the page is
// removed; callers mutate entries in place through them, exactly as they
// did with the heap-allocated per-page PTEs of the original map table.
type pageTable interface {
	// lookup returns the entry for p, or nil if unmapped.
	lookup(p Page) *PTE
	// peek is lookup without the walk-depth accounting: a pure read that
	// mutates nothing. Detector hooks inspect the table through
	// AddressSpace.Peek, and the dTLB hit path probes it; a depth counter
	// bump there would skew the translation-walk histogram with reads
	// that model no hardware walk.
	peek(p Page) *PTE
	// insert maps p to a copy of pte and returns the stored entry.
	insert(p Page, pte PTE) *PTE
	// remove unmaps p (a no-op if unmapped).
	remove(p Page)
	// size returns the number of mapped pages.
	size() int
	// walk visits every mapped page in ascending page order until fn
	// returns false.
	walk(fn func(p Page, pte *PTE) bool)
	// walkDepths returns how many lookups terminated after touching
	// 1..4 table nodes. Plain per-table counters (the table is engine-
	// serialized like the rest of the space); the engine flushes them to
	// the obs depth histogram at run end. The flat reference table has
	// no walk, so it reports zeros.
	walkDepths() [4]uint64
}

// The radix page table is x86-style: a page number (at most 52 bits, since
// addresses are 64-bit and pages 4 KiB) walks four levels of 13-bit
// indices. Interior nodes are arrays of child pointers; leaves store PTEs
// by value in a fixed array with a presence bitmap. Compared to the flat
// Go map this trades hashing for O(depth) pointer chases, allocates one
// node per 8192-page region instead of one PTE per page, and makes range
// operations (munmap, protect, PagesWithKey) ordered walks instead of
// full-table scans with a sort.
const (
	radixBits = 13
	radixFan  = 1 << radixBits // 8192
	radixMask = radixFan - 1
)

type radixTable struct {
	root   [radixFan]*radixL2
	n      int
	depths [4]uint64 // lookups terminating after touching 1..4 nodes
}

type radixL2 struct{ kids [radixFan]*radixL3 }

type radixL3 struct{ kids [radixFan]*radixLeaf }

type radixLeaf struct {
	present [radixFan / 64]uint64
	ptes    [radixFan]PTE
}

func newRadixTable() *radixTable { return &radixTable{} }

func (t *radixTable) lookup(p Page) *PTE {
	l2 := t.root[p>>(3*radixBits)]
	if l2 == nil {
		t.depths[0]++
		return nil
	}
	l3 := l2.kids[(p>>(2*radixBits))&radixMask]
	if l3 == nil {
		t.depths[1]++
		return nil
	}
	leaf := l3.kids[(p>>radixBits)&radixMask]
	if leaf == nil {
		t.depths[2]++
		return nil
	}
	t.depths[3]++
	i := p & radixMask
	if leaf.present[i>>6]&(1<<(i&63)) == 0 {
		return nil
	}
	return &leaf.ptes[i]
}

func (t *radixTable) peek(p Page) *PTE {
	l2 := t.root[p>>(3*radixBits)]
	if l2 == nil {
		return nil
	}
	l3 := l2.kids[(p>>(2*radixBits))&radixMask]
	if l3 == nil {
		return nil
	}
	leaf := l3.kids[(p>>radixBits)&radixMask]
	if leaf == nil {
		return nil
	}
	i := p & radixMask
	if leaf.present[i>>6]&(1<<(i&63)) == 0 {
		return nil
	}
	return &leaf.ptes[i]
}

func (t *radixTable) insert(p Page, pte PTE) *PTE {
	l2 := t.root[p>>(3*radixBits)]
	if l2 == nil {
		l2 = new(radixL2)
		t.root[p>>(3*radixBits)] = l2
	}
	l3 := l2.kids[(p>>(2*radixBits))&radixMask]
	if l3 == nil {
		l3 = new(radixL3)
		l2.kids[(p>>(2*radixBits))&radixMask] = l3
	}
	leaf := l3.kids[(p>>radixBits)&radixMask]
	if leaf == nil {
		leaf = new(radixLeaf)
		l3.kids[(p>>radixBits)&radixMask] = leaf
	}
	i := p & radixMask
	if leaf.present[i>>6]&(1<<(i&63)) == 0 {
		leaf.present[i>>6] |= 1 << (i & 63)
		t.n++
	}
	leaf.ptes[i] = pte
	return &leaf.ptes[i]
}

func (t *radixTable) remove(p Page) {
	l2 := t.root[p>>(3*radixBits)]
	if l2 == nil {
		return
	}
	l3 := l2.kids[(p>>(2*radixBits))&radixMask]
	if l3 == nil {
		return
	}
	leaf := l3.kids[(p>>radixBits)&radixMask]
	if leaf == nil {
		return
	}
	i := p & radixMask
	if leaf.present[i>>6]&(1<<(i&63)) == 0 {
		return
	}
	// An emptied leaf stays linked, like the interior nodes: the bump
	// allocator above maps the next pages of the same region, and
	// unlinking would allocate the ~257 KiB leaf again on the next mmap.
	// Virtual pages are never reused, so retained leaves are bounded by
	// the pages ever reserved.
	leaf.present[i>>6] &^= 1 << (i & 63)
	leaf.ptes[i] = PTE{} // drop the Frame and Memfd references
	t.n--
}

func (t *radixTable) size() int { return t.n }

func (t *radixTable) walkDepths() [4]uint64 { return t.depths }

func (t *radixTable) walk(fn func(p Page, pte *PTE) bool) {
	for i1, l2 := range t.root {
		if l2 == nil {
			continue
		}
		for i2, l3 := range l2.kids {
			if l3 == nil {
				continue
			}
			for i3, leaf := range l3.kids {
				if leaf == nil {
					continue
				}
				base := Page(i1)<<(3*radixBits) | Page(i2)<<(2*radixBits) | Page(i3)<<radixBits
				for w, word := range leaf.present {
					for word != 0 {
						b := bits.TrailingZeros64(word)
						word &^= 1 << b
						i := Page(w<<6 + b)
						if !fn(base|i, &leaf.ptes[i]) {
							return
						}
					}
				}
			}
		}
	}
}
