package alloc

import (
	"testing"

	"kard/internal/mem"
)

// FuzzUniquePageSequence drives the consolidated allocator with arbitrary
// malloc/free sequences and checks its structural invariants: unique
// virtual pages, mapped while the object lives and unmapped once it is
// freed; every object placed within its page span; frees exactly once.
func FuzzUniquePageSequence(f *testing.F) {
	f.Add([]byte{10, 200, 3, 40, 7})
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 80 {
			ops = ops[:80]
		}
		as := mem.NewAddressSpace(0)
		u := NewUniquePage(as, NewObjectTable(as))
		pages := map[mem.Page]ObjectID{}
		var live []*Object
		for _, b := range ops {
			if b%5 == 4 && len(live) > 0 {
				idx := int(b/5) % len(live)
				o := live[idx]
				if _, err := u.Free(o); err != nil {
					t.Fatal(err)
				}
				if err := freedErr(u, o); err != nil {
					t.Fatal(err)
				}
				last := o.FirstPage + mem.Page(o.NumPages) - 1
				for p := o.FirstPage; p <= last; p++ {
					if as.Mapped(p.Base()) {
						t.Fatalf("page %d of freed %s still mapped", p, o)
					}
					delete(pages, p)
				}
				live = append(live[:idx], live[idx+1:]...)
				continue
			}
			size := uint64(b)*37 + 1
			o, _, err := u.Malloc(size, "fuzz")
			if err != nil {
				t.Fatal(err)
			}
			last := o.FirstPage + mem.Page(o.NumPages) - 1
			for p := o.FirstPage; p <= last; p++ {
				if prev, taken := pages[p]; taken {
					t.Fatalf("page %d shared by objects %d and %d", p, prev, o.ID)
				}
				if !as.Mapped(p.Base()) {
					t.Fatalf("page %d of live %s not mapped", p, o)
				}
				pages[p] = o.ID
			}
			if err := placementErr(o, o.Base, o.Base+mem.Addr(size-1)); err != nil {
				t.Fatal(err)
			}
			live = append(live, o)
		}
	})
}
