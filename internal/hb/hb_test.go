package hb

import (
	"encoding/json"
	"testing"

	"kard/internal/alloc"
	"kard/internal/sim"
)

func run(t *testing.T, body func(e *sim.Engine, m *sim.Thread)) (*sim.Stats, *Detector) {
	t.Helper()
	det := New(Options{})
	e := sim.New(sim.Config{Seed: 1}, det)
	st, err := e.Run(func(m *sim.Thread) { body(e, m) })
	if err != nil {
		t.Fatal(err)
	}
	return st, det
}

func TestVCJoinAndGet(t *testing.T) {
	var a, b VC
	a.set(0, 3)
	a.set(2, 1)
	b.set(1, 5)
	b.set(2, 4)
	a.join(b)
	want := []uint64{3, 5, 4}
	for i, w := range want {
		if a.get(i) != w {
			t.Errorf("a[%d] = %d, want %d", i, a.get(i), w)
		}
	}
	if a.get(99) != 0 {
		t.Error("out-of-range component should read 0")
	}
}

func TestEpochHappensBefore(t *testing.T) {
	var v VC
	v.set(1, 5)
	if !(epoch{tid: 1, clock: 5}).happensBefore(v) {
		t.Error("equal clock is ordered")
	}
	if (epoch{tid: 1, clock: 6}).happensBefore(v) {
		t.Error("later epoch is not ordered")
	}
	if (epoch{tid: 2, clock: 1}).happensBefore(v) {
		t.Error("unseen thread epoch is not ordered")
	}
}

func TestNoRaceWithCommonLock(t *testing.T) {
	st, _ := run(t, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		o := m.Malloc(64, "o")
		w1 := m.Go("w1", func(w *sim.Thread) {
			for i := 0; i < 5; i++ {
				w.Lock(mu, "s1")
				w.Write(o, 0, 8, "w")
				w.Unlock(mu)
			}
		})
		w2 := m.Go("w2", func(w *sim.Thread) {
			for i := 0; i < 5; i++ {
				w.Lock(mu, "s2")
				w.Write(o, 0, 8, "w")
				w.Unlock(mu)
			}
		})
		m.Join(w1)
		m.Join(w2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("races = %+v, want none with a common lock", st.Races)
	}
}

func TestRaceWithDifferentLocks(t *testing.T) {
	st, _ := run(t, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		o := m.Malloc(64, "o")
		w1 := m.Go("w1", func(w *sim.Thread) {
			w.Lock(la, "s1")
			w.Write(o, 0, 8, "w1")
			w.Unlock(la)
		})
		w2 := m.Go("w2", func(w *sim.Thread) {
			w.Lock(lb, "s2")
			w.Write(o, 0, 8, "w2")
			w.Unlock(lb)
		})
		m.Join(w1)
		m.Join(w2)
	})
	if len(st.Races) != 1 {
		t.Fatalf("races = %d, want 1", len(st.Races))
	}
	if !st.Races[0].ILU {
		t.Error("race should be classified ILU (both sides locked)")
	}
}

func TestNoLockRaceIsNonILU(t *testing.T) {
	st, _ := run(t, func(e *sim.Engine, m *sim.Thread) {
		o := m.Malloc(64, "o")
		w1 := m.Go("w1", func(w *sim.Thread) { w.Write(o, 0, 8, "w1") })
		w2 := m.Go("w2", func(w *sim.Thread) { w.Write(o, 0, 8, "w2") })
		m.Join(w1)
		m.Join(w2)
	})
	if len(st.Races) != 1 {
		t.Fatalf("races = %d, want 1", len(st.Races))
	}
	if st.Races[0].ILU {
		t.Error("no-lock race must be non-ILU — TSan's broader scope (Table 2)")
	}
}

func TestSpawnJoinOrder(t *testing.T) {
	// Parent writes before spawn and after join: ordered, no race.
	st, _ := run(t, func(e *sim.Engine, m *sim.Thread) {
		o := m.Malloc(64, "o")
		m.Write(o, 0, 8, "parent-before")
		w := m.Go("w", func(w *sim.Thread) {
			w.Write(o, 0, 8, "child")
		})
		m.Join(w)
		m.Write(o, 0, 8, "parent-after")
	})
	if len(st.Races) != 0 {
		t.Fatalf("spawn/join-ordered accesses raced: %+v", st.Races)
	}
}

func TestBarrierOrders(t *testing.T) {
	st, _ := run(t, func(e *sim.Engine, m *sim.Thread) {
		b := e.NewBarrier(2)
		o := m.Malloc(64, "o")
		w1 := m.Go("w1", func(w *sim.Thread) {
			w.Write(o, 0, 8, "phase1")
			w.Barrier(b)
		})
		w2 := m.Go("w2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Write(o, 0, 8, "phase2")
		})
		m.Join(w1)
		m.Join(w2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("barrier-ordered accesses raced: %+v", st.Races)
	}
}

func TestDisjointOffsetsDoNotRace(t *testing.T) {
	st, _ := run(t, func(e *sim.Engine, m *sim.Thread) {
		o := m.Malloc(128, "o")
		w1 := m.Go("w1", func(w *sim.Thread) { w.Write(o, 0, 8, "w1") })
		w2 := m.Go("w2", func(w *sim.Thread) { w.Write(o, 64, 8, "w2") })
		m.Join(w1)
		m.Join(w2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("disjoint byte ranges raced: %+v", st.Races)
	}
}

func TestReadReadNoRace(t *testing.T) {
	st, _ := run(t, func(e *sim.Engine, m *sim.Thread) {
		o := m.Malloc(64, "o")
		m.Write(o, 0, 8, "init")
		w1 := m.Go("w1", func(w *sim.Thread) { w.Read(o, 0, 8, "r1") })
		w2 := m.Go("w2", func(w *sim.Thread) { w.Read(o, 0, 8, "r2") })
		m.Join(w1)
		m.Join(w2)
	})
	// Parent's init is ordered by spawn; the two reads don't conflict.
	if len(st.Races) != 0 {
		t.Fatalf("read/read raced: %+v", st.Races)
	}
}

func TestInstrumentationCostCharged(t *testing.T) {
	// TSan must be much slower than baseline on the same access-heavy
	// body — the defining property of compiler memory instrumentation.
	body := func(m *sim.Thread) {
		o := m.Malloc(4096, "buf")
		for i := 0; i < 100; i++ {
			m.Write(o, 0, 4096, "sweep")
		}
	}
	eb := sim.New(sim.Config{Seed: 1}, nil)
	sb, err := eb.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	et := sim.New(sim.Config{Seed: 1}, New(Options{}))
	stt, err := et.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(stt.ExecTime) / float64(sb.ExecTime)
	if ratio < 3 {
		t.Errorf("TSan slowdown = %.1fx, want >= 3x on access-heavy code", ratio)
	}
}

func TestRaceDeduplication(t *testing.T) {
	st, _ := run(t, func(e *sim.Engine, m *sim.Thread) {
		o := m.Malloc(64, "o")
		w1 := m.Go("w1", func(w *sim.Thread) {
			for i := 0; i < 10; i++ {
				w.Write(o, 0, 8, "w1")
				w.Compute(100)
			}
		})
		w2 := m.Go("w2", func(w *sim.Thread) {
			for i := 0; i < 10; i++ {
				w.Write(o, 0, 8, "w2")
				w.Compute(90)
			}
		})
		m.Join(w1)
		m.Join(w2)
	})
	if len(st.Races) > 2 {
		t.Errorf("races = %d, want <= 2 (one per direction) after dedupe", len(st.Races))
	}
	if len(st.Races) == 0 {
		t.Error("expected the racy loop to be reported")
	}
}

func TestFreedObjectDropsShadow(t *testing.T) {
	var o *alloc.Object
	var before any
	run(t, func(e *sim.Engine, m *sim.Thread) {
		o = m.Malloc(64, "o")
		m.Write(o, 0, 8, "w")
		m.Flush()
		before = o.DetectorState
		m.Free(o)
	})
	if _, ok := before.(*shadow); !ok {
		t.Errorf("object state before free = %T, want *shadow", before)
	}
	if o.DetectorState != nil {
		t.Errorf("object state = %T after free, want nil", o.DetectorState)
	}
}

// TestRaceJSONOmitsDetectorState: a race record embeds its object, and the
// object carries the detector's shadow ring; the ring must not reach the
// JSON verdicts, which are byte-compared across runs and restarts.
func TestRaceJSONOmitsDetectorState(t *testing.T) {
	st, _ := run(t, func(e *sim.Engine, m *sim.Thread) {
		o := m.Malloc(64, "o")
		w1 := m.Go("w1", func(w *sim.Thread) { w.Write(o, 0, 8, "w1") })
		w2 := m.Go("w2", func(w *sim.Thread) { w.Write(o, 0, 8, "w2") })
		m.Join(w1)
		m.Join(w2)
	})
	if len(st.Races) == 0 {
		t.Fatal("expected a race")
	}
	r := st.Races[0]
	if r.Object.DetectorState == nil {
		t.Fatal("racy object carries no detector state")
	}
	withState, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Object.DetectorState = nil
	without, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(withState) != string(without) {
		t.Errorf("race JSON depends on detector state:\n%s\nvs\n%s", withState, without)
	}
}

// TestExactModeSurvivesRingEviction: with the default per-object ring, a
// racy pair separated by many accesses to other offsets can be evicted
// and missed; exact per-granule shadow cells cannot lose it.
func TestExactModeSurvivesRingEviction(t *testing.T) {
	scenario := func(exact bool) int {
		det := New(Options{Exact: exact})
		e := sim.New(sim.Config{Seed: 1}, det)
		b := e.NewBarrier(2)
		st, err := e.Run(func(m *sim.Thread) {
			o := m.Malloc(256, "o")
			w1 := m.Go("w1", func(w *sim.Thread) {
				w.Barrier(b)
				w.Write(o, 0, 8, "racy-write")
				// Flood the object's shadow ring with accesses to
				// other granules.
				for i := 1; i < 20; i++ {
					w.Write(o, uint64(i)*8, 8, "noise")
				}
			})
			w2 := m.Go("w2", func(w *sim.Thread) {
				w.Barrier(b)
				w.Compute(100000) // arrive after the flood
				w.Read(o, 0, 8, "racy-read")
			})
			m.Join(w1)
			m.Join(w2)
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range st.Races {
			if r.Site == "racy-read" || r.OtherSite == "racy-write" {
				n++
			}
		}
		return n
	}
	if got := scenario(false); got != 0 {
		t.Logf("ring mode unexpectedly kept the record (%d) — acceptable but unusual", got)
	}
	if got := scenario(true); got == 0 {
		t.Error("exact mode missed the flooded race")
	}
}

// TestExactModeMatchesRingOnSimpleRace: both modes agree on the basic
// two-thread conflict.
func TestExactModeMatchesRingOnSimpleRace(t *testing.T) {
	for _, exact := range []bool{false, true} {
		det := New(Options{Exact: exact})
		e := sim.New(sim.Config{Seed: 1}, det)
		st, err := e.Run(func(m *sim.Thread) {
			o := m.Malloc(64, "o")
			w1 := m.Go("w1", func(w *sim.Thread) { w.Write(o, 0, 8, "w1") })
			w2 := m.Go("w2", func(w *sim.Thread) { w.Write(o, 0, 8, "w2") })
			m.Join(w1)
			m.Join(w2)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Races) != 1 {
			t.Errorf("exact=%v: races = %d, want 1", exact, len(st.Races))
		}
	}
}

// TestExactModeDropsFreedObjects mirrors the ring-mode cleanup test.
func TestExactModeDropsFreedObjects(t *testing.T) {
	det := New(Options{Exact: true})
	e := sim.New(sim.Config{Seed: 1}, det)
	var o *alloc.Object
	var granules int
	if _, err := e.Run(func(m *sim.Thread) {
		o = m.Malloc(64, "o")
		m.Write(o, 0, 64, "w")
		m.Flush()
		granules = len(o.DetectorState.(map[uint64]*granule))
		m.Free(o)
	}); err != nil {
		t.Fatal(err)
	}
	if granules != 8 {
		t.Errorf("exact shadow granules = %d before free, want 8", granules)
	}
	if o.DetectorState != nil {
		t.Errorf("exact shadow state = %T after free, want nil", o.DetectorState)
	}
}
