package kard

import (
	"testing"
)

// TestSystemQuickstart is the README example: two threads touch the same
// object under different locks; Kard reports the race.
func TestSystemQuickstart(t *testing.T) {
	sys := NewSystem(Config{Detector: DetectorKard, Seed: 1})
	la, lb := sys.NewMutex("la"), sys.NewMutex("lb")
	barrier := sys.NewBarrier(2)
	rep, err := sys.Run(func(main *Thread) {
		counter := main.Malloc(8, "counter")
		t1 := main.Go("t1", func(w *Thread) {
			w.Lock(la, "increment")
			w.Write(counter, 0, 8, "counter++")
			w.Barrier(barrier)
			w.Compute(100000)
			w.Unlock(la)
		})
		t2 := main.Go("t2", func(w *Thread) {
			w.Barrier(barrier)
			w.Lock(lb, "report")
			w.Read(counter, 0, 8, "print(counter)")
			w.Unlock(lb)
		})
		main.Join(t1)
		main.Join(t2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RacyObjects() != 1 {
		t.Fatalf("races = %d, want 1: %+v", rep.RacyObjects(), rep.Races)
	}
	if rep.Kard == nil || rep.Kard.RaceFaults == 0 {
		t.Error("Kard counters missing")
	}
}

func TestSystemDetectorKinds(t *testing.T) {
	// "" is the Kard default.
	for _, kind := range []DetectorKind{DetectorNone, DetectorAllocOnly, DetectorKard, DetectorTSan, DetectorLockset, ""} {
		sys := NewSystem(Config{Detector: kind})
		rep, err := sys.Run(func(m *Thread) {
			o := m.Malloc(64, "x")
			m.Write(o, 0, 8, "w")
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rep.Stats.ExecTime == 0 {
			t.Errorf("%s: zero exec time", kind)
		}
		if (kind == DetectorKard || kind == "") != (rep.Kard != nil) {
			t.Errorf("%s: kard counters presence wrong", kind)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSystem accepted an unknown detector")
		}
	}()
	NewSystem(Config{Detector: "bogus"})
}

func TestRunWorkloadFacade(t *testing.T) {
	rep, err := RunWorkload("aget", WorkloadConfig{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RacyObjects() != 1 {
		t.Errorf("aget races = %d, want 1", rep.RacyObjects())
	}
	if _, err := RunWorkload("nope", WorkloadConfig{}); err == nil {
		t.Error("unknown workload should fail")
	}
	if len(Workloads()) < 19 {
		t.Errorf("workloads = %d", len(Workloads()))
	}
}

func TestKardOptionsAblation(t *testing.T) {
	run := func(opts KardOptions) int {
		sys := NewSystem(Config{Detector: DetectorKard, Seed: 1, Kard: opts})
		la, lb := sys.NewMutex("la"), sys.NewMutex("lb")
		b := sys.NewBarrier(2)
		rep, err := sys.Run(func(m *Thread) {
			o := m.Malloc(256, "buf")
			t1 := m.Go("t1", func(w *Thread) {
				w.Lock(la, "sa")
				w.Write(o, 0, 8, "w1")
				w.Barrier(b)
				w.Compute(100000)
				w.Write(o, 0, 8, "w1b")
				w.Unlock(la)
			})
			t2 := m.Go("t2", func(w *Thread) {
				w.Barrier(b)
				w.Lock(lb, "sb")
				w.Write(o, 128, 8, "w2") // different offset
				w.Compute(200000)
				w.Unlock(lb)
			})
			m.Join(t1)
			m.Join(t2)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.RacyObjects()
	}
	if n := run(KardOptions{}); n != 0 {
		t.Errorf("interleaving should prune the different-offset report, got %d", n)
	}
	if n := run(KardOptions{DisableInterleaving: true}); n != 1 {
		t.Errorf("without interleaving the report should remain, got %d", n)
	}
}

func TestDeterminismThroughFacade(t *testing.T) {
	r1, err := RunWorkload("pigz", WorkloadConfig{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunWorkload("pigz", WorkloadConfig{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.ExecTime != r2.Stats.ExecTime || len(r1.Races) != len(r2.Races) {
		t.Error("same seed diverged")
	}
}
