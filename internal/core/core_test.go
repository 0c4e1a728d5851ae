package core

import (
	"testing"

	"kard/internal/alloc"
	"kard/internal/mpk"
	"kard/internal/sim"
)

// newRun builds an engine with a Kard detector over the unique-page
// allocator, runs body, and returns the stats and detector.
func newRun(t *testing.T, seed int64, opts Options, body func(e *sim.Engine, main *sim.Thread)) (*sim.Stats, *Detector) {
	t.Helper()
	det := New(opts)
	return runDet(t, seed, det, body), det
}

// runDet runs a body with a pre-built detector, for tests that inspect
// detector internals from inside the workload.
func runDet(t *testing.T, seed int64, det *Detector, body func(e *sim.Engine, main *sim.Thread)) *sim.Stats {
	t.Helper()
	// White-box tests observe detector state (PKRU, domains, key tables)
	// from inside the body between accesses, which requires the scalar
	// execution mode: under batching an access has not reached the
	// detector until the next sync point. Batched and parallel execution
	// of the Kard detector is covered by the harness differential suite.
	e := sim.New(sim.Config{Seed: seed, UniquePageAllocator: true, ExecMode: sim.ExecModeSerial}, det)
	st, err := e.Run(func(m *sim.Thread) { body(e, m) })
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// stateOf returns Kard's record for o, which hangs off the object, or nil
// when the detector tracks none.
func stateOf(o *alloc.Object) *objState {
	os, _ := o.DetectorState.(*objState)
	return os
}

// TestFigure1aExclusiveWrite reproduces Figure 1a: t1 writes o under lock
// la while t2 reads o under lock lb — inconsistent lock usage, one race.
func TestFigure1aExclusiveWrite(t *testing.T) {
	st, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		o := m.Malloc(64, "o")
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Write(o, 0, 8, "t1-write") // identification: o → Read-write, w holds the key
			w.Barrier(b)
			w.Compute(100000) // keep the key held while t2 reads
			w.Unlock(la)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Lock(lb, "sb")
			w.Read(o, 0, 8, "t2-read") // cannot obtain the key: violation
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
	races := st.Races
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1: %+v", len(races), races)
	}
	r := races[0]
	if r.Kind != mpk.Read || !r.ILU {
		t.Errorf("race = %+v, want ILU read", r)
	}
	if r.Section != "sb" || r.OtherSection != "sa" {
		t.Errorf("sections = %q vs %q, want sb vs sa", r.Section, r.OtherSection)
	}
	if det.Counters().RaceFaults == 0 {
		t.Error("race fault counter not bumped")
	}
}

// TestFigure1bSharedRead reproduces Figure 1b: both threads only read o in
// their critical sections — both obtain the read-only key, no violation.
func TestFigure1bSharedRead(t *testing.T) {
	st, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		o := m.Malloc(64, "o")
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Read(o, 0, 8, "t1-read")
			w.Barrier(b)
			w.Compute(100000)
			w.Unlock(la)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Lock(lb, "sb")
			w.Read(o, 0, 8, "t2-read")
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("races = %+v, want none for shared read", st.Races)
	}
	c := det.Counters()
	if c.SharedRO != 1 {
		t.Errorf("read-only objects = %d, want 1", c.SharedRO)
	}
	if c.SharedRWEver != 0 {
		t.Errorf("read-write objects = %d, want 0", c.SharedRWEver)
	}
}

// TestTable1Scope verifies the in/out-of-scope matrix of Table 1: lock/lock,
// lock/none and none/lock conflicts are detected; none/none is not.
func TestTable1Scope(t *testing.T) {
	scenario := func(t1Lock, t2Lock bool) int {
		st, _ := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
			la, lb := e.NewMutex("la"), e.NewMutex("lb")
			b := e.NewBarrier(2)
			o := m.Malloc(64, "o")
			w1 := m.Go("t1", func(w *sim.Thread) {
				if t1Lock {
					w.Lock(la, "sa")
				}
				w.Write(o, 0, 8, "t1-write")
				w.Barrier(b)
				w.Compute(100000)
				if t1Lock {
					w.Unlock(la)
				}
			})
			w2 := m.Go("t2", func(w *sim.Thread) {
				w.Barrier(b)
				if t2Lock {
					w.Lock(lb, "sb")
				}
				w.Write(o, 0, 8, "t2-write")
				if t2Lock {
					w.Unlock(lb)
				}
			})
			m.Join(w1)
			m.Join(w2)
		})
		return len(st.Races)
	}

	if got := scenario(true, true); got != 1 {
		t.Errorf("lock/lock: races = %d, want 1", got)
	}
	if got := scenario(true, false); got != 1 {
		t.Errorf("lock/none: races = %d, want 1", got)
	}
	if got := scenario(false, true); got == 0 {
		// t1 writes without a lock: the object only becomes shared once
		// t2 writes it inside its section; t1's earlier write cannot be
		// seen. This row of Table 1 is detectable only when the
		// unlocked access happens while the key is held, i.e. when the
		// locked access comes first. Verify the symmetric ordering.
		got2 := func() int {
			st, _ := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
				lb := e.NewMutex("lb")
				b := e.NewBarrier(2)
				o := m.Malloc(64, "o")
				w2 := m.Go("t2", func(w *sim.Thread) {
					w.Lock(lb, "sb")
					w.Write(o, 0, 8, "t2-write")
					w.Barrier(b)
					w.Compute(100000)
					w.Unlock(lb)
				})
				w1 := m.Go("t1", func(w *sim.Thread) {
					w.Barrier(b)
					w.Write(o, 0, 8, "t1-write") // no lock
				})
				m.Join(w1)
				m.Join(w2)
			})
			return len(st.Races)
		}()
		if got2 != 1 {
			t.Errorf("none/lock (locked first): races = %d, want 1", got2)
		}
	}
	if got := scenario(false, false); got != 0 {
		t.Errorf("none/none: races = %d, want 0 (out of ILU scope)", got)
	}
}

// TestDomainMigration follows one object through the domains of §5.2:
// Not-accessed → Read-only on a read in a section → Read-write on a write.
func TestDomainMigration(t *testing.T) {
	det := New(Options{})
	runDet(t, 1, det, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		o := m.Malloc(64, "o")
		m.Lock(mu, "s")
		m.Read(o, 0, 8, "r") // NA → RO
		m.Unlock(mu)

		os := stateOf(o)
		if os.domain != DomainReadOnly {
			t.Errorf("after read: domain = %s, want read-only", os.domain)
		}
		pte, _ := e.Space().Peek(o.Base)
		if mpk.Pkey(pte.Pkey) != KeyRO {
			t.Errorf("page key = %d, want k14", pte.Pkey)
		}

		m.Lock(mu, "s")
		m.Write(o, 0, 8, "w") // RO → RW
		m.Unlock(mu)
		if os.domain != DomainReadWrite {
			t.Errorf("after write: domain = %s, want read-write", os.domain)
		}
		pte, _ = e.Space().Peek(o.Base)
		if k := mpk.Pkey(pte.Pkey); k < FirstRW || k > LastRW {
			t.Errorf("page key = %d, want a read-write key", k)
		}
	})
	c := det.Counters()
	if c.IdentificationFaults != 1 || c.MigrationFaults != 1 {
		t.Errorf("identification=%d migration=%d, want 1/1", c.IdentificationFaults, c.MigrationFaults)
	}
}

// TestFreshObjectStartsNotAccessed checks the k15 protection applied at
// allocation and that reads outside critical sections never fault.
func TestFreshObjectStartsNotAccessed(t *testing.T) {
	_, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		o := m.Malloc(64, "o")
		pte, _ := e.Space().Peek(o.Base)
		if mpk.Pkey(pte.Pkey) != KeyNA {
			t.Errorf("page key = %d, want k15", pte.Pkey)
		}
		m.Write(o, 0, 8, "init") // outside any section: k15 is held, no fault
		m.Read(o, 0, 8, "check")
	})
	if det.Counters().Faults != 0 {
		t.Errorf("faults = %d, want 0 for outside-section access", det.Counters().Faults)
	}
}

// TestProactiveAcquisition verifies Figure 3b: re-entering a section whose
// objects are known acquires their keys up front, so no further faults.
func TestProactiveAcquisition(t *testing.T) {
	_, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		o := m.Malloc(64, "o")
		for i := 0; i < 5; i++ {
			m.Lock(mu, "s")
			m.Write(o, 0, 8, "w")
			m.Unlock(mu)
		}
	})
	c := det.Counters()
	if c.Faults != 1 {
		t.Errorf("faults = %d, want 1 (only the identification fault)", c.Faults)
	}
	if c.ProactiveAcquires < 4 {
		t.Errorf("proactive acquires = %d, want >= 4", c.ProactiveAcquires)
	}
}

// TestDisableProactiveAblation verifies the ablation knob: without
// proactive acquisition every re-entry faults again.
func TestDisableProactiveAblation(t *testing.T) {
	_, det := newRun(t, 1, Options{DisableProactive: true}, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		o := m.Malloc(64, "o")
		for i := 0; i < 5; i++ {
			m.Lock(mu, "s")
			m.Write(o, 0, 8, "w")
			m.Unlock(mu)
		}
	})
	if c := det.Counters(); c.Faults < 5 {
		t.Errorf("faults = %d, want >= 5 with proactive acquisition disabled", c.Faults)
	}
}

// TestKeyReuseWithinSection verifies §5.4 rule 1: objects written in the
// same section activation share the thread's held key.
func TestKeyReuseWithinSection(t *testing.T) {
	det := New(Options{})
	runDet(t, 1, det, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		a, b, c := m.Malloc(32, "a"), m.Malloc(32, "b"), m.Malloc(32, "c")
		m.Lock(mu, "s")
		m.Write(a, 0, 8, "wa")
		m.Write(b, 0, 8, "wb")
		m.Write(c, 0, 8, "wc")
		m.Unlock(mu)
		ka := stateOf(a).key
		if stateOf(b).key != ka || stateOf(c).key != ka {
			t.Errorf("keys differ: %v %v %v, want all equal",
				ka, stateOf(b).key, stateOf(c).key)
		}
	})
	if n := det.Counters().SharedRWEver; n != 3 {
		t.Errorf("read-write objects = %d, want 3", n)
	}
}

// TestKeyRecycling exhausts the 13 read-write keys with sequential
// sections and checks that the 14th assignment recycles an unheld key,
// moving its objects to the Read-only domain (§5.4 rule 3a).
func TestKeyRecycling(t *testing.T) {
	var objs []*alloc.Object
	_, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		for i := 0; i < NumRWKeys+1; i++ {
			mu := e.NewMutex(string(rune('a' + i)))
			o := m.Malloc(32, "o")
			objs = append(objs, o)
			m.Lock(mu, "s"+string(rune('a'+i)))
			m.Write(o, 0, 8, "w")
			m.Unlock(mu)
		}
	})
	c := det.Counters()
	if c.KeyRecyclingEvents != 1 {
		t.Fatalf("recycling events = %d, want 1", c.KeyRecyclingEvents)
	}
	if c.KeySharingEvents != 0 {
		t.Errorf("sharing events = %d, want 0 (recycling preferred)", c.KeySharingEvents)
	}
	// The recycled key's object moved to the Read-only domain.
	recycledToRO := 0
	for _, o := range objs {
		if os := stateOf(o); os != nil && os.domain == DomainReadOnly {
			recycledToRO++
		}
	}
	if recycledToRO != 1 {
		t.Errorf("objects moved to read-only by recycling = %d, want 1", recycledToRO)
	}
}

// TestKeySharing holds all 13 keys concurrently and checks the 14th
// assignment shares (§5.4 rule 3b) without reporting a spurious race.
func TestKeySharing(t *testing.T) {
	_, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		n := NumRWKeys + 1
		b := e.NewBarrier(n)
		var ws []*sim.Thread
		for i := 0; i < n; i++ {
			i := i
			mu := e.NewMutex(string(rune('a' + i)))
			o := m.Malloc(32, "o")
			ws = append(ws, m.Go(string(rune('A'+i)), func(w *sim.Thread) {
				if i < NumRWKeys {
					w.Lock(mu, "s"+string(rune('a'+i)))
					w.Write(o, 0, 8, "w")
					w.Barrier(b)
					w.Compute(200000)
					w.Unlock(mu)
				} else {
					w.Barrier(b)
					w.Lock(mu, "s-last")
					w.Write(o, 0, 8, "w")
					w.Unlock(mu)
				}
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	})
	c := det.Counters()
	if c.KeySharingEvents < 1 {
		t.Fatalf("sharing events = %d, want >= 1", c.KeySharingEvents)
	}
}

// TestInterleavingPrunesDifferentOffsets reproduces Figure 4 with the two
// threads touching different offsets of the same object: the candidate
// race must be pruned (§5.5 automated pruning (b)).
func TestInterleavingPrunesDifferentOffsets(t *testing.T) {
	st, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		o := m.Malloc(256, "o")
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Write(o, 0, 8, "t1-first")
			w.Barrier(b)
			w.Compute(100000)
			w.Write(o, 0, 8, "t1-second") // faults on the interleaved key
			w.Unlock(la)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Lock(lb, "sb")
			w.Write(o, 128, 8, "t2-write") // different offset
			w.Compute(200000)
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("races = %+v, want pruned to none", st.Races)
	}
	c := det.Counters()
	if c.InterleaveStarted != 1 || c.InterleaveResolved != 1 || c.PrunedSpurious != 1 {
		t.Errorf("interleave started=%d resolved=%d pruned=%d, want 1/1/1",
			c.InterleaveStarted, c.InterleaveResolved, c.PrunedSpurious)
	}
}

// TestInterleavingConfirmsSameOffset is the same schedule with both
// threads touching the same bytes: the record must survive.
func TestInterleavingConfirmsSameOffset(t *testing.T) {
	st, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		o := m.Malloc(256, "o")
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Write(o, 0, 8, "t1-first")
			w.Barrier(b)
			w.Compute(100000)
			w.Write(o, 0, 8, "t1-second")
			w.Unlock(la)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Lock(lb, "sb")
			w.Write(o, 0, 8, "t2-write") // same offset
			w.Compute(200000)
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
	if len(st.Races) != 1 {
		t.Fatalf("races = %d, want 1 confirmed", len(st.Races))
	}
	if c := det.Counters(); c.PrunedSpurious != 0 {
		t.Errorf("pruned = %d, want 0", c.PrunedSpurious)
	}
}

// TestDisableInterleavingKeepsSpurious: with the ablation knob on, the
// different-offset candidate is reported — the false positive Kard's
// interleaving exists to remove.
func TestDisableInterleavingKeepsSpurious(t *testing.T) {
	st, _ := newRun(t, 1, Options{DisableInterleaving: true}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		o := m.Malloc(256, "o")
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Write(o, 0, 8, "t1-first")
			w.Barrier(b)
			w.Compute(100000)
			w.Unlock(la)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Lock(lb, "sb")
			w.Write(o, 128, 8, "t2-write")
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
	if len(st.Races) != 1 {
		t.Fatalf("races = %d, want the unpruned candidate", len(st.Races))
	}
}

// TestSmallSectionFalsePositive reproduces the pigz false positive of
// §7.3: the holder's critical section is so small that the key is already
// released (within the fault-handling window) when the conflicting access
// faults; interleaving cannot run and the different-offset report stays.
func TestSmallSectionFalsePositive(t *testing.T) {
	st, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		o := m.Malloc(256, "o")
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Write(o, 0, 8, "t1-write")
			w.Unlock(la) // tiny section: exits immediately
			w.Barrier(b)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b) // runs just after t1's release, inside the 24k window
			w.Lock(lb, "sb")
			w.Write(o, 128, 8, "t2-write") // different offset: would be pruned if verifiable
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
	if len(st.Races) != 1 {
		t.Fatalf("races = %d, want 1 unverifiable (false positive) report", len(st.Races))
	}
	if c := det.Counters(); c.InterleaveStarted != 0 {
		t.Errorf("interleaving should not start for a released-key conflict, got %d", c.InterleaveStarted)
	}
}

// TestReleaseWindowExpired: the same schedule with a long delay between
// release and access must not report a race (Algorithm 1: the key is
// free).
func TestReleaseWindowExpired(t *testing.T) {
	st, _ := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		o := m.Malloc(256, "o")
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Write(o, 0, 8, "t1-write")
			w.Unlock(la)
			w.Barrier(b)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Compute(100000) // well past the 24,000-cycle fault window
			w.Lock(lb, "sb")
			w.Write(o, 0, 8, "t2-write")
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("races = %+v, want none after the window expired", st.Races)
	}
}

// TestOutsideSectionReadRace is the Aget pattern (§7.3): a worker updates
// a global inside its critical section while the main thread reads it with
// no lock at all.
func TestOutsideSectionReadRace(t *testing.T) {
	var g *alloc.Object
	det := New(Options{})
	e := sim.New(sim.Config{Seed: 1, UniquePageAllocator: true}, det)
	g = e.Global(8, "bwritten")
	b := e.NewBarrier(2)
	mu := e.NewMutex("bwritten_mutex")
	st, err := e.Run(func(m *sim.Thread) {
		w := m.Go("worker", func(w *sim.Thread) {
			w.Lock(mu, "update_bwritten")
			w.Write(g, 0, 8, "bwritten+=n")
			w.Barrier(b)
			w.Compute(100000)
			w.Unlock(mu)
		})
		m.Barrier(b)
		m.Read(g, 0, 8, "progress-display") // no lock
		m.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Races) != 1 {
		t.Fatalf("races = %d, want 1", len(st.Races))
	}
	r := st.Races[0]
	if !r.ILU || r.Thread != 0 || r.OtherSection != "update_bwritten" {
		t.Errorf("race = %+v", r)
	}
}

// TestSharedReadThenWriterConflict: two readers share a read-write key
// read-only; a writer then conflicts with them.
func TestSharedReadOnRWObject(t *testing.T) {
	st, _ := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		o := m.Malloc(64, "o")
		// First make o a Read-write object.
		m.Lock(mu, "init")
		m.Write(o, 0, 8, "init")
		m.Unlock(mu)
		b := e.NewBarrier(2)
		r1 := m.Go("r1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Read(o, 0, 8, "read1")
			w.Barrier(b)
			w.Compute(100000)
			w.Unlock(la)
		})
		r2 := m.Go("r2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Lock(lb, "sb")
			w.Read(o, 0, 8, "read2") // concurrent read: allowed
			w.Unlock(lb)
		})
		m.Join(r1)
		m.Join(r2)
	})
	if len(st.Races) != 0 {
		t.Fatalf("concurrent reads must not race: %+v", st.Races)
	}
}

// TestRedundantReportPruned: the same conflicting pair faulting repeatedly
// yields a single report (§5.5 automated pruning (a)).
func TestRedundantReportPruned(t *testing.T) {
	st, det := newRun(t, 1, Options{DisableInterleaving: true}, func(e *sim.Engine, m *sim.Thread) {
		la, lb := e.NewMutex("la"), e.NewMutex("lb")
		b := e.NewBarrier(2)
		o := m.Malloc(64, "o")
		t1 := m.Go("t1", func(w *sim.Thread) {
			w.Lock(la, "sa")
			w.Write(o, 0, 8, "w")
			w.Barrier(b)
			w.Compute(500000)
			w.Unlock(la)
		})
		t2 := m.Go("t2", func(w *sim.Thread) {
			w.Barrier(b)
			w.Lock(lb, "sb")
			for i := 0; i < 10; i++ {
				w.Read(o, 0, 8, "r")
				w.Compute(1000)
			}
			w.Unlock(lb)
		})
		m.Join(t1)
		m.Join(t2)
	})
	if len(st.Races) != 1 {
		t.Fatalf("races = %d, want 1 deduplicated report", len(st.Races))
	}
	if c := det.Counters(); c.PrunedRedundant < 9 {
		t.Errorf("redundant pruned = %d, want >= 9", c.PrunedRedundant)
	}
}

// TestNonILUExtension: with the §8 extension, a no-lock/no-lock conflict
// (row 4 of Table 1) becomes detectable; without it, it is not.
func TestNonILUExtension(t *testing.T) {
	scenario := func(ext bool) int {
		st, _ := newRun(t, 1, Options{NonILUExtension: ext}, func(e *sim.Engine, m *sim.Thread) {
			mu := e.NewMutex("init")
			b := e.NewBarrier(2)
			o := m.Malloc(64, "o")
			// Make o a Read-write object first (one locked write).
			m.Lock(mu, "init")
			m.Write(o, 0, 8, "init")
			m.Unlock(mu)
			t1 := m.Go("t1", func(w *sim.Thread) {
				w.Write(o, 0, 8, "t1-nolock")
				w.Barrier(b)
				w.Compute(100000)
			})
			t2 := m.Go("t2", func(w *sim.Thread) {
				w.Barrier(b)
				w.Write(o, 0, 8, "t2-nolock")
			})
			m.Join(t1)
			m.Join(t2)
		})
		return len(st.Races)
	}
	if got := scenario(false); got != 0 {
		t.Errorf("without extension: races = %d, want 0", got)
	}
	if got := scenario(true); got != 1 {
		t.Errorf("with extension: races = %d, want 1", got)
	}
}

// TestFreeCleansState: freeing a tracked object drops its key assignment
// and detector state, and a freed Read-only object leaves the SharedRO
// count.
func TestFreeCleansState(t *testing.T) {
	det := New(Options{})
	runDet(t, 1, det, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		o, ro := m.Malloc(64, "o"), m.Malloc(64, "ro")
		m.Lock(mu, "s")
		m.Write(o, 0, 8, "w")
		m.Read(ro, 0, 8, "r")
		m.Unlock(mu)
		if n := det.Counters().SharedRO; n != 1 {
			t.Fatalf("SharedRO = %d before free, want 1", n)
		}
		m.Free(ro)
		if n := det.Counters().SharedRO; n != 0 {
			t.Errorf("SharedRO = %d after freeing the read-only object, want 0", n)
		}
		if ro.DetectorState != nil {
			t.Errorf("read-only object state = %T after free, want nil", ro.DetectorState)
		}
		k := stateOf(o).key
		m.Free(o)
		if o.DetectorState != nil {
			t.Errorf("object state = %T after free, want nil", o.DetectorState)
		}
		if _, ok := det.key(k).objects[o.ID]; ok {
			t.Error("key still references freed object")
		}
	})
}

// TestNestedSectionsKeyRestore: keys acquired in a nested section are
// released on inner exit, restoring the outer key set (§5.4).
func TestNestedSectionsKeyRestore(t *testing.T) {
	det := New(Options{})
	runDet(t, 1, det, func(e *sim.Engine, m *sim.Thread) {
		ma, mb := e.NewMutex("a"), e.NewMutex("b")
		oa, ob := m.Malloc(32, "oa"), m.Malloc(32, "ob")
		m.Lock(ma, "outer")
		m.Write(oa, 0, 8, "wa")
		ka := stateOf(oa).key
		m.Lock(mb, "inner")
		m.Write(ob, 0, 8, "wb")
		m.Unlock(mb)
		// Outer key still held, inner object's key still assigned but
		// possibly the same (rule 1 reuse).
		if m.PKRU.Perm(ka) != mpk.PermRW {
			t.Error("outer key lost after inner exit")
		}
		m.Unlock(ma)
		if m.PKRU.Perm(ka) != mpk.PermNone {
			t.Error("outer key kept after outer exit")
		}
		if m.PKRU.Perm(KeyNA) != mpk.PermRW {
			t.Error("k15 not restored after leaving all sections")
		}
	})
}

// TestDeterministicDetection: the same seed yields identical race reports.
func TestDeterministicDetection(t *testing.T) {
	run := func() (int, uint64) {
		st, det := newRun(t, 9, Options{}, func(e *sim.Engine, m *sim.Thread) {
			la, lb := e.NewMutex("la"), e.NewMutex("lb")
			o := m.Malloc(64, "o")
			b := e.NewBarrier(2)
			t1 := m.Go("t1", func(w *sim.Thread) {
				for i := 0; i < 20; i++ {
					w.Lock(la, "sa")
					w.Write(o, 0, 8, "w1")
					w.Compute(5000)
					w.Unlock(la)
					w.Compute(777)
				}
				w.Barrier(b)
			})
			t2 := m.Go("t2", func(w *sim.Thread) {
				for i := 0; i < 20; i++ {
					w.Lock(lb, "sb")
					w.Write(o, 0, 8, "w2")
					w.Compute(3000)
					w.Unlock(lb)
					w.Compute(1234)
				}
				w.Barrier(b)
			})
			m.Join(t1)
			m.Join(t2)
		})
		return len(st.Races), det.Counters().Faults
	}
	r1, f1 := run()
	r2, f2 := run()
	if r1 != r2 || f1 != f2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", r1, f1, r2, f2)
	}
	if r1 == 0 {
		t.Error("expected at least one race in the conflicting loop")
	}
}

// TestCountersSnapshot sanity-checks the counter surface.
func TestCountersSnapshot(t *testing.T) {
	_, det := newRun(t, 1, Options{}, func(e *sim.Engine, m *sim.Thread) {
		mu := e.NewMutex("m")
		ro, rw := m.Malloc(32, "ro"), m.Malloc(32, "rw")
		m.Lock(mu, "s")
		m.Read(ro, 0, 8, "r")
		m.Write(rw, 0, 8, "w")
		m.Unlock(mu)
	})
	c := det.Counters()
	if c.SharedRO != 1 || c.SharedRWEver != 1 {
		t.Errorf("RO=%d RW=%d, want 1/1", c.SharedRO, c.SharedRWEver)
	}
	if c.Faults != 2 || c.IdentificationFaults != 2 {
		t.Errorf("faults=%d ident=%d, want 2/2", c.Faults, c.IdentificationFaults)
	}
}
