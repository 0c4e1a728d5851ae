package lockset

import (
	"testing"

	"kard/internal/alloc"
	"kard/internal/sim"
)

func run(t *testing.T, body func(e *sim.Engine, m *sim.Thread)) *sim.Stats {
	t.Helper()
	e := sim.New(sim.Config{Seed: 1}, New())
	st, err := e.Run(func(m *sim.Thread) { body(e, m) })
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b, want []int
	}{
		{[]int{1, 2, 3}, []int{2, 3, 4}, []int{2, 3}},
		{[]int{1}, []int{2}, nil},
		{nil, []int{1}, nil},
		{[]int{5, 9}, []int{5, 9}, []int{5, 9}},
	}
	for _, tt := range tests {
		got := intersect(tt.a, tt.b)
		if len(got) != len(tt.want) {
			t.Errorf("intersect(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("intersect(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		}
	}
}

func TestConsistentLockNoReport(t *testing.T) {
	st := run(t, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		o := m.Malloc(64, "o")
		w1 := m.Go("w1", func(w *sim.Thread) {
			w.Lock(mu, "s1")
			w.Write(o, 0, 8, "w")
			w.Unlock(mu)
		})
		m.Join(w1)
		w2 := m.Go("w2", func(w *sim.Thread) {
			w.Lock(mu, "s2")
			w.Write(o, 0, 8, "w")
			w.Unlock(mu)
		})
		m.Join(w2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("consistent locking reported: %+v", st.Races)
	}
}

func TestInconsistentLockReported(t *testing.T) {
	st := run(t, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		o := m.Malloc(64, "o")
		// Two rounds: the first moves the object out of the exclusive
		// state; the second empties the candidate lockset {lb} ∩ {la}.
		for i := 0; i < 2; i++ {
			w1 := m.Go("w1", func(w *sim.Thread) {
				w.Lock(la, "s1")
				w.Write(o, 0, 8, "w")
				w.Unlock(la)
			})
			m.Join(w1)
			w2 := m.Go("w2", func(w *sim.Thread) {
				w.Lock(lb, "s2")
				w.Write(o, 0, 8, "w")
				w.Unlock(lb)
			})
			m.Join(w2)
		}
	})
	if len(st.Races) != 1 {
		t.Fatalf("races = %d, want 1", len(st.Races))
	}
}

// TestScheduleInsensitiveFalsePositive demonstrates the §3.1 precision
// argument: the two accesses here are strictly ordered by a join — they
// can never race — yet lockset still warns because it ignores concurrency.
// Kard (schedule-sensitive) would stay silent; see the core package tests.
func TestScheduleInsensitiveFalsePositive(t *testing.T) {
	st := run(t, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		o := m.Malloc(64, "o")
		// Strictly join-ordered accesses: no two can ever be concurrent.
		for i := 0; i < 2; i++ {
			w1 := m.Go("w1", func(w *sim.Thread) {
				w.Lock(la, "s1")
				w.Write(o, 0, 8, "w")
				w.Unlock(la)
			})
			m.Join(w1)
			w2 := m.Go("w2", func(w *sim.Thread) {
				w.Lock(lb, "s2")
				w.Write(o, 0, 8, "w")
				w.Unlock(lb)
			})
			m.Join(w2)
		}
	})
	if len(st.Races) != 1 {
		t.Fatalf("lockset should (falsely) report the ordered conflict, got %d", len(st.Races))
	}
}

func TestExclusivePhaseQuiet(t *testing.T) {
	var o *alloc.Object
	var st0 state
	st := run(t, func(e *sim.Engine, m *sim.Thread) {
		o = m.Malloc(64, "o")
		for i := 0; i < 10; i++ {
			m.Write(o, 0, 8, "w") // single thread, no locks: exclusive
		}
		m.Flush()
		st0 = o.DetectorState.(*objInfo).st
		m.Free(o)
	})
	if len(st.Races) != 0 {
		t.Fatalf("single-thread accesses reported: %+v", st.Races)
	}
	if st0 != exclusive {
		t.Errorf("state before free = %d, want exclusive (%d)", st0, exclusive)
	}
	if o.DetectorState != nil {
		t.Errorf("object state = %T after free, want nil", o.DetectorState)
	}
}

func TestSharedReadOnlyQuiet(t *testing.T) {
	st := run(t, func(e *sim.Engine, m *sim.Thread) {
		o := m.Malloc(64, "o")
		m.Write(o, 0, 8, "init")
		w1 := m.Go("w1", func(w *sim.Thread) { w.Read(o, 0, 8, "r") })
		m.Join(w1)
		w2 := m.Go("w2", func(w *sim.Thread) { w.Read(o, 0, 8, "r") })
		m.Join(w2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("read-shared object reported: %+v", st.Races)
	}
}

func TestOneReportPerObject(t *testing.T) {
	st := run(t, func(e *sim.Engine, m *sim.Thread) {
		o := m.Malloc(64, "o")
		for i := 0; i < 3; i++ {
			w1 := m.Go("w1", func(w *sim.Thread) {
				w.Write(o, 0, 8, "w")
			})
			m.Join(w1)
			w2 := m.Go("w2", func(w *sim.Thread) {
				w.Write(o, 0, 8, "w")
			})
			m.Join(w2)
		}
	})
	if len(st.Races) != 1 {
		t.Fatalf("races = %d, want exactly 1 per object", len(st.Races))
	}
}

func TestNestedLocksRefine(t *testing.T) {
	// Accesses always under lb (but sometimes also la): the candidate
	// lockset keeps lb, so no warning.
	st := run(t, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		o := m.Malloc(64, "o")
		w1 := m.Go("w1", func(w *sim.Thread) {
			w.Lock(la, "outer")
			w.Lock(lb, "inner")
			w.Write(o, 0, 8, "w")
			w.Unlock(lb)
			w.Unlock(la)
		})
		m.Join(w1)
		w2 := m.Go("w2", func(w *sim.Thread) {
			w.Lock(lb, "only")
			w.Write(o, 0, 8, "w")
			w.Unlock(lb)
		})
		m.Join(w2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("common inner lock should keep C(v) nonempty: %+v", st.Races)
	}
}
