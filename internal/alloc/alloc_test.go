package alloc

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"kard/internal/mem"
)

func newUP(t *testing.T) *UniquePage {
	t.Helper()
	as := mem.NewAddressSpace(0)
	return NewUniquePage(as, NewObjectTable(as))
}

func newNative(t *testing.T) *Native {
	t.Helper()
	as := mem.NewAddressSpace(0)
	return NewNative(as, NewObjectTable(as))
}

// placementErr reports how o breaks the placement a faulting address
// relies on to resolve to o: o must contain every probed byte, and its
// page span [FirstPage, FirstPage+NumPages) must cover its padded extent
// [Base, Base+Padded).
func placementErr(o *Object, probes ...mem.Addr) error {
	for _, a := range probes {
		if !o.Contains(a) {
			return fmt.Errorf("%s does not contain %s", o, a)
		}
	}
	end := o.FirstPage + mem.Page(o.NumPages)
	if o.FirstPage.Base() > o.Base || end.Base() < o.Base+mem.Addr(o.Padded) {
		return fmt.Errorf("%s: pages [%d, %d) do not cover its %d padded bytes", o, o.FirstPage, end, o.Padded)
	}
	return nil
}

// freedErr reports whether o, already freed through a, is marked freed
// and refuses a second free as a double free.
func freedErr(a Allocator, o *Object) error {
	if !o.Freed() {
		return fmt.Errorf("%s not marked freed", o)
	}
	if _, err := a.Free(o); err == nil || !strings.Contains(err.Error(), "double free") {
		return fmt.Errorf("second free of %s: got %v, want a double-free error", o, err)
	}
	return nil
}

func TestAlign(t *testing.T) {
	tests := []struct{ n, a, want uint64 }{
		{0, 32, 32}, {1, 32, 32}, {32, 32, 32}, {33, 32, 64}, {24, 32, 32}, {100, 16, 112},
	}
	for _, tt := range tests {
		if got := align(tt.n, tt.a); got != tt.want {
			t.Errorf("align(%d,%d) = %d, want %d", tt.n, tt.a, got, tt.want)
		}
	}
}

func TestUniquePageDistinctVirtualPages(t *testing.T) {
	u := newUP(t)
	a, _, err := u.Malloc(24, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := u.Malloc(24, "b")
	if err != nil {
		t.Fatal(err)
	}
	if mem.PageOf(a.Base) == mem.PageOf(b.Base) {
		t.Error("two objects must not share a virtual page")
	}
	// ...but they consolidate onto the same physical frame.
	pa, _ := u.space.Peek(a.Base)
	pb, _ := u.space.Peek(b.Base)
	if pa.Frame != pb.Frame {
		t.Error("two 24B objects should share one physical frame")
	}
	// Shifted in-frame bases must not overlap: 24 rounds to 32.
	if mem.Offset(a.Base) == mem.Offset(b.Base) {
		t.Error("in-frame offsets must differ")
	}
	if u.Consolidated != 2 || u.Dedicated != 0 {
		t.Errorf("consolidated=%d dedicated=%d", u.Consolidated, u.Dedicated)
	}
}

func TestUniquePageFigure2Density(t *testing.T) {
	// Figure 2: 128 unique virtual pages of 32 B objects map into a
	// single physical page.
	u := newUP(t)
	for i := 0; i < 128; i++ {
		if _, _, err := u.Malloc(32, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if got := u.space.PhysicalBytes(); got < mem.PageSize || got > mem.PageSize+128*objectMetadataBytes {
		t.Errorf("physical = %d, want ~one frame + metadata", got)
	}
	if got := u.space.MappedPages(); got != 128 {
		t.Errorf("mapped virtual pages = %d, want 128", got)
	}
	// The 129th allocation needs a second frame.
	if _, _, err := u.Malloc(32, "x"); err != nil {
		t.Fatal(err)
	}
	if got := u.file.Size(); got != 2*mem.PageSize {
		t.Errorf("file size = %d, want 2 pages", got)
	}
}

func TestUniquePageRounding(t *testing.T) {
	u := newUP(t)
	o, _, err := u.Malloc(24, "w")
	if err != nil {
		t.Fatal(err)
	}
	if o.Padded != 32 {
		t.Errorf("padded = %d, want 32", o.Padded)
	}
	// §7.5: water_nsquared allocates 128,000 24 B objects, wasting 8 B
	// each.
	if u.WastedBytes != 8 {
		t.Errorf("wasted = %d, want 8", u.WastedBytes)
	}
}

func TestUniquePageFrameBoundary(t *testing.T) {
	u := newUP(t)
	// 3 objects of 1500B (padded 1504): the third would straddle the
	// frame boundary (2×1504 + 1504 > 4096) and must start a new frame.
	var objs []*Object
	for i := 0; i < 3; i++ {
		o, _, err := u.Malloc(1500, "big-ish")
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	p0, _ := u.space.Peek(objs[0].Base)
	p2, _ := u.space.Peek(objs[2].Base)
	if p0.Frame == p2.Frame {
		t.Error("third object must live in a new frame")
	}
	if mem.Offset(objs[2].Base) != 0 {
		t.Errorf("new-frame object offset = %d, want 0", mem.Offset(objs[2].Base))
	}
}

func TestUniquePageLargeObject(t *testing.T) {
	u := newUP(t)
	o, _, err := u.Malloc(3*mem.PageSize+5, "grid")
	if err != nil {
		t.Fatal(err)
	}
	if o.NumPages != 4 {
		t.Errorf("pages = %d, want 4", o.NumPages)
	}
	if u.Dedicated != 1 {
		t.Errorf("dedicated = %d, want 1", u.Dedicated)
	}
	if mem.Offset(o.Base) != 0 {
		t.Error("large object must be page-aligned")
	}
}

func TestUniquePageFreeNoRecycle(t *testing.T) {
	u := newUP(t)
	o, _, err := u.Malloc(32, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Free(o); err != nil {
		t.Fatal(err)
	}
	if u.space.Mapped(o.Base) {
		t.Error("virtual page must be unmapped on free")
	}
	// Physical frame stays allocated (file not truncated): the
	// non-recycling memory behavior of §6.
	if got := u.space.PhysicalBytes(); got < mem.PageSize {
		t.Errorf("physical = %d; frame should remain allocated", got)
	}
	if err := freedErr(u, o); err != nil {
		t.Error(err)
	}
}

func TestUniquePageRecycleAblation(t *testing.T) {
	u := newUP(t)
	u.Recycle = true
	o, _, err := u.Malloc(32, "a")
	if err != nil {
		t.Fatal(err)
	}
	base := o.Base
	if _, err := u.Free(o); err != nil {
		t.Fatal(err)
	}
	o2, cost, err := u.Malloc(30, "b")
	if err != nil {
		t.Fatal(err)
	}
	if o2.Base != base {
		t.Errorf("recycled base = %s, want %s", o2.Base, base)
	}
	if u.RecycleHits != 1 {
		t.Errorf("recycle hits = %d, want 1", u.RecycleHits)
	}
	if cost >= 1000 {
		t.Errorf("recycled alloc should avoid syscalls, cost %d", cost)
	}
}

func TestUniquePageGlobalsNotConsolidated(t *testing.T) {
	u := newUP(t)
	g1, _, err := u.Global(8, "g_time")
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := u.Global(8, "g_bytes")
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Global || !g2.Global {
		t.Error("globals must be marked global")
	}
	if mem.PageOf(g1.Base) == mem.PageOf(g2.Base) {
		t.Error("globals are not consolidated (§6): distinct pages expected")
	}
	if _, err := u.Free(g1); err == nil {
		t.Error("freeing a global must fail")
	}
}

func TestNativePacksObjects(t *testing.T) {
	n := newNative(t)
	a, _, err := n.Malloc(24, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := n.Malloc(24, "b")
	if err != nil {
		t.Fatal(err)
	}
	if mem.PageOf(a.Base) != mem.PageOf(b.Base) {
		t.Error("native allocator should pack small objects into one page")
	}
	if a.Padded != 32 { // 16B alignment: 24→32
		t.Errorf("padded = %d, want 32", a.Padded)
	}
}

func TestNativeFreeListReuse(t *testing.T) {
	n := newNative(t)
	a, _, _ := n.Malloc(40, "a")
	base := a.Base
	if _, err := n.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _, _ := n.Malloc(40, "b")
	if b.Base != base {
		t.Errorf("free list not reused: %s vs %s", b.Base, base)
	}
	if _, err := n.Free(a); err == nil {
		t.Error("double free must fail")
	}
}

func TestNativeLargeObject(t *testing.T) {
	n := newNative(t)
	o, _, err := n.Malloc(2*mem.PageSize, "buf")
	if err != nil {
		t.Fatal(err)
	}
	if mem.Offset(o.Base) != 0 {
		t.Error("large native objects are page-aligned mmaps")
	}
	rss := n.space.ResidentBytes()
	if _, err := n.Free(o); err != nil {
		t.Fatal(err)
	}
	if got := n.space.ResidentBytes(); got >= rss {
		t.Error("freeing a large object should return pages")
	}
}

func TestNativeGlobalsPacked(t *testing.T) {
	n := newNative(t)
	g1, _, _ := n.Global(8, "a")
	g2, _, _ := n.Global(8, "b")
	if mem.PageOf(g1.Base) != mem.PageOf(g2.Base) {
		t.Error("native globals should pack into the data segment")
	}
}

// The TestObjectLookup tests check the placement an address → object
// resolution relies on, against the objects the allocator returned.
func TestObjectLookup(t *testing.T) {
	u := newUP(t)
	o, _, err := u.Malloc(100, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := placementErr(o, o.Base, o.Base+50, o.Base+99); err != nil {
		t.Error(err)
	}
	if o.Contains(o.Base+mem.Addr(o.Size)) || o.Contains(o.Base-1) {
		t.Errorf("%s contains a byte outside its payload", o)
	}
	p, _, err := u.Malloc(100, "t")
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != o.ID+1 {
		t.Errorf("second object ID = %d, want %d", p.ID, o.ID+1)
	}
}

func TestObjectLookupMultiPage(t *testing.T) {
	u := newUP(t)
	o, _, err := u.Malloc(3*mem.PageSize, "grid")
	if err != nil {
		t.Fatal(err)
	}
	if o.NumPages != 3 {
		t.Errorf("pages = %d, want 3", o.NumPages)
	}
	if err := placementErr(o, o.Base+2*mem.PageSize+17); err != nil {
		t.Error(err)
	}
}

func TestObjectLookupPackedPage(t *testing.T) {
	n := newNative(t)
	var objs []*Object
	for i := 0; i < 20; i++ {
		o, _, err := n.Malloc(48, "x")
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	for i, o := range objs {
		if err := placementErr(o, o.Base+5); err != nil {
			t.Error(err)
		}
		for _, p := range objs[:i] {
			if o.Base < p.Base+mem.Addr(p.Padded) && p.Base < o.Base+mem.Addr(o.Padded) {
				t.Errorf("%s overlaps %s", o, p)
			}
		}
	}
}

// Property: for any sequence of small allocations, every allocation
// contains every interior byte within its page span and no two live
// objects overlap.
func TestUniquePageNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		as := mem.NewAddressSpace(0)
		u := NewUniquePage(as, NewObjectTable(as))
		type span struct {
			frame  mem.FrameID
			lo, hi uint64
		}
		var spans []span
		for i, s16 := range sizes {
			if i >= 50 {
				break
			}
			size := uint64(s16%2000) + 1
			o, _, err := u.Malloc(size, "p")
			if err != nil {
				return false
			}
			if placementErr(o, o.Base, o.Base+mem.Addr(size-1)) != nil {
				return false
			}
			pte, ok := as.Peek(o.Base)
			if !ok {
				return false
			}
			off := uint64(mem.Offset(o.Base))
			if o.Padded < mem.PageSize {
				ns := span{pte.Frame.ID(), off, off + o.Padded}
				for _, sp := range spans {
					if sp.frame == ns.frame && ns.lo < sp.hi && sp.lo < ns.hi {
						return false // physical overlap
					}
				}
				spans = append(spans, ns)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestObjectTableCounts(t *testing.T) {
	u := newUP(t)
	var objs []*Object
	for i := 0; i < 5; i++ {
		o, _, _ := u.Malloc(32, "x")
		objs = append(objs, o)
	}
	tbl := u.Objects()
	if tbl.Live() != 5 || tbl.PeakLive() != 5 || tbl.Created() != 5 {
		t.Errorf("live=%d peak=%d created=%d", tbl.Live(), tbl.PeakLive(), tbl.Created())
	}
	for _, o := range objs[:3] {
		if _, err := u.Free(o); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Live() != 2 || tbl.PeakLive() != 5 {
		t.Errorf("after frees live=%d peak=%d", tbl.Live(), tbl.PeakLive())
	}
	if tbl.Created() != 5 {
		t.Errorf("created = %d after frees, want 5", tbl.Created())
	}
	for i, o := range objs {
		if want := i < 3; o.Freed() != want {
			t.Errorf("%s freed = %v, want %v", o, o.Freed(), want)
		}
	}
}

// Property: the native allocator never hands out overlapping live chunks,
// across arbitrary malloc/free sequences with free-list reuse.
func TestNativeNoOverlapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		as := mem.NewAddressSpace(0)
		n := NewNative(as, NewObjectTable(as))
		type span struct{ lo, hi mem.Addr }
		live := map[ObjectID]span{}
		var objs []*Object
		for i, op16 := range ops {
			if i >= 60 {
				break
			}
			if op16%4 == 3 && len(objs) > 0 {
				// Free a pseudo-random live object.
				idx := int(op16/4) % len(objs)
				o := objs[idx]
				if !o.Freed() {
					if _, err := n.Free(o); err != nil {
						return false
					}
					if freedErr(n, o) != nil {
						return false
					}
					delete(live, o.ID)
				}
				continue
			}
			size := uint64(op16%300) + 1
			o, _, err := n.Malloc(size, "p")
			if err != nil {
				return false
			}
			ns := span{o.Base, o.Base + mem.Addr(o.Padded)}
			for _, s := range live {
				if ns.lo < s.hi && s.lo < ns.hi {
					return false // overlap with a live object
				}
			}
			live[o.ID] = ns
			objs = append(objs, o)
			if placementErr(o, o.Base, o.Base+mem.Addr(size-1)) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
