package alloc

import (
	"testing"

	"kard/internal/faultinject"
	"kard/internal/mem"
)

func TestUniquePageDegradesToNativeFallback(t *testing.T) {
	as := mem.NewAddressSpace(0)
	plan := faultinject.Plan{Sites: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteUniquePage: {Every: 1}, // persistent: every unique-page placement fails
	}}
	as.SetInjector(faultinject.New(1, plan))
	u := NewUniquePage(as, NewObjectTable(as))

	var objs []*Object
	for i := 0; i < 8; i++ {
		o, _, err := u.Malloc(64, "deg")
		if err != nil {
			t.Fatalf("malloc %d: %v", i, err)
		}
		objs = append(objs, o)
	}
	if u.FallbackAllocs != 8 {
		t.Fatalf("FallbackAllocs = %d, want 8", u.FallbackAllocs)
	}
	// Degraded objects are compactly packed: they share pages, the very
	// granularity loss the degradation trades for availability.
	if objs[0].FirstPage != objs[1].FirstPage {
		t.Errorf("degraded objects on pages %d and %d, expected compact sharing",
			objs[0].FirstPage, objs[1].FirstPage)
	}
	// Placement and free still work, and frees must not unmap shared
	// pages.
	for _, o := range objs {
		if err := placementErr(o, o.Base); err != nil {
			t.Fatalf("degraded object: %v", err)
		}
	}
	for _, o := range objs {
		if _, err := u.Free(o); err != nil {
			t.Fatalf("free of degraded %s: %v", o, err)
		}
		if err := freedErr(u, o); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUniquePageTransientFaultPropagates(t *testing.T) {
	as := mem.NewAddressSpace(0)
	plan := faultinject.Plan{Sites: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteUniquePage: {Every: 2, Transient: true},
	}}
	as.SetInjector(faultinject.New(1, plan))
	u := NewUniquePage(as, NewObjectTable(as))

	if _, _, err := u.Malloc(64, "a"); err != nil { // attempt 1: clean
		t.Fatalf("first malloc: %v", err)
	}
	_, _, err := u.Malloc(64, "b") // attempt 2: fires
	if !faultinject.IsTransient(err) {
		t.Fatalf("second malloc: got %v, want transient injected error", err)
	}
	if u.FallbackAllocs != 0 {
		t.Fatalf("transient fault degraded to fallback (FallbackAllocs=%d); it must propagate for retry", u.FallbackAllocs)
	}
	if _, _, err := u.Malloc(64, "c"); err != nil { // attempt 3: clean again
		t.Fatalf("third malloc: %v", err)
	}
}

// FuzzAllocatorFaults drives the consolidated allocator with arbitrary
// malloc/free sequences under a fuzz-chosen fault plan and checks graceful
// degradation: no panic, every error is an injected fault (the only ones
// the plan can produce), and every successful allocation is placed within
// its page span and freeable exactly once.
func FuzzAllocatorFaults(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(7), []byte{10, 200, 3, 40, 7})
	f.Add(int64(42), uint8(1), uint8(2), []byte{255, 255, 0, 0, 128, 64, 32, 16})
	f.Add(int64(7), uint8(0), uint8(0), []byte{9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, seed int64, everyA, everyB uint8, ops []byte) {
		if len(ops) > 80 {
			ops = ops[:80]
		}
		plan := faultinject.Plan{Sites: map[faultinject.Site]faultinject.Rule{}}
		if everyA > 0 {
			plan.Sites[faultinject.SiteMalloc] = faultinject.Rule{Every: uint64(everyA), Transient: true}
			plan.Sites[faultinject.SiteTruncate] = faultinject.Rule{Every: uint64(everyA)*2 + 1, Transient: true}
		}
		if everyB > 0 {
			plan.Sites[faultinject.SiteUniquePage] = faultinject.Rule{Every: uint64(everyB), Transient: everyB%2 == 0}
			plan.Sites[faultinject.SiteMmap] = faultinject.Rule{Every: uint64(everyB)*3 + 1, Transient: true}
		}
		as := mem.NewAddressSpace(0)
		as.SetInjector(faultinject.New(seed, plan))
		u := NewUniquePage(as, NewObjectTable(as))

		var live []*Object
		for _, b := range ops {
			if b%5 == 4 && len(live) > 0 {
				idx := int(b/5) % len(live)
				if _, err := u.Free(live[idx]); err != nil {
					t.Fatalf("free: %v", err)
				}
				if err := freedErr(u, live[idx]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:idx], live[idx+1:]...)
				continue
			}
			size := uint64(b)*37 + 1
			o, _, err := u.Malloc(size, "fuzz")
			if err != nil {
				if !faultinject.IsInjected(err) {
					t.Fatalf("malloc error is not an injected fault: %v", err)
				}
				continue
			}
			if err := placementErr(o, o.Base, o.Base+mem.Addr(size-1)); err != nil {
				t.Fatal(err)
			}
			live = append(live, o)
		}
		for _, o := range live {
			if _, err := u.Free(o); err != nil {
				t.Fatalf("final free: %v", err)
			}
		}
	})
}
