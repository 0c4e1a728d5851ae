package core

// Property-based tests: randomized programs exercising the detector's
// global invariants across many seeds and shapes.

import (
	"math/rand"
	"testing"

	"kard/internal/alloc"
	"kard/internal/faultinject"
	"kard/internal/mpk"
	"kard/internal/sim"
)

// TestPropertyConsistentLockingNoFalsePositives: in a random program where
// every object is only ever accessed under its own dedicated lock, Kard
// must never report a race, whatever the schedule. This is the detector's
// core soundness-for-clean-programs property.
func TestPropertyConsistentLockingNoFalsePositives(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		nObj := 2 + rng.Intn(6)
		nThr := 2 + rng.Intn(4)
		iters := 10 + rng.Intn(40)

		det := New(Options{})
		e := sim.New(sim.Config{Seed: seed, UniquePageAllocator: true}, det)
		st, err := e.Run(func(m *sim.Thread) {
			objs := make([]*alloc.Object, nObj)
			mus := make([]*sim.Mutex, nObj)
			sites := make([]string, nObj)
			for i := range objs {
				objs[i] = m.Malloc(uint64(16+rng.Intn(200)), "obj")
				mus[i] = e.NewMutex("mu")
				sites[i] = "cs" + string(rune('a'+i))
			}
			// Pre-generate each thread's deterministic access plan so
			// goroutine code stays pure.
			type step struct {
				obj   int
				write bool
				off   uint64
			}
			plans := make([][]step, nThr)
			for w := range plans {
				for j := 0; j < iters; j++ {
					o := rng.Intn(nObj)
					plans[w] = append(plans[w], step{
						obj:   o,
						write: rng.Intn(2) == 0,
						off:   uint64(rng.Intn(2)) * 8,
					})
				}
			}
			var ws []*sim.Thread
			for w := 0; w < nThr; w++ {
				plan := plans[w]
				ws = append(ws, m.Go("w", func(th *sim.Thread) {
					for _, s := range plan {
						th.Lock(mus[s.obj], sites[s.obj])
						if s.write {
							th.Write(objs[s.obj], s.off, 8, "acc")
						} else {
							th.Read(objs[s.obj], s.off, 8, "acc")
						}
						th.Compute(100)
						th.Unlock(mus[s.obj])
						th.Compute(500)
					}
				}))
			}
			for _, w := range ws {
				m.Join(w)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(st.Races) != 0 {
			t.Errorf("seed %d: consistent locking produced %d reports: %+v",
				seed, len(st.Races), st.Races)
		}
	}
}

// TestPropertyRacyProgramDetected: a random program where one designated
// object is written under thread-specific (inconsistent) locks must be
// caught under at least most seeds — ILU detection is schedule-sensitive,
// but the conflict here overlaps by construction.
func TestPropertyRacyProgramDetected(t *testing.T) {
	detected := 0
	const seeds = 10
	for seed := int64(0); seed < seeds; seed++ {
		det := New(Options{})
		e := sim.New(sim.Config{Seed: seed, UniquePageAllocator: true}, det)
		b := e.NewBarrier(2)
		st, err := e.Run(func(m *sim.Thread) {
			o := m.Malloc(64, "racy")
			la, lb := e.NewMutex("la"), e.NewMutex("lb")
			w1 := m.Go("w1", func(w *sim.Thread) {
				w.Lock(la, "sa")
				w.Barrier(b)
				w.Write(o, 0, 8, "w1")
				w.Compute(50000)
				w.Unlock(la)
			})
			w2 := m.Go("w2", func(w *sim.Thread) {
				w.Barrier(b)
				w.Compute(1000)
				w.Lock(lb, "sb")
				w.Write(o, 0, 8, "w2")
				w.Unlock(lb)
			})
			m.Join(w1)
			m.Join(w2)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Races) > 0 {
			detected++
		}
	}
	if detected < seeds*8/10 {
		t.Errorf("overlapping ILU conflict detected in only %d/%d seeds", detected, seeds)
	}
}

// TestInvariantKeyMapsConsistent: after any random run, the key-section
// map must be internally consistent — no holders remain once all threads
// exited, every Read-write object is indexed under exactly its key, and
// domain counters match the object states.
func TestInvariantKeyMapsConsistent(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		det := New(Options{})
		e := sim.New(sim.Config{Seed: seed, UniquePageAllocator: true}, det)
		rng := rand.New(rand.NewSource(seed * 77))
		_, err := e.Run(func(m *sim.Thread) {
			mus := []*sim.Mutex{e.NewMutex("a"), e.NewMutex("b"), e.NewMutex("c")}
			var objs []*alloc.Object
			for i := 0; i < 20; i++ {
				objs = append(objs, m.Malloc(32, "o"))
			}
			var ws []*sim.Thread
			for w := 0; w < 3; w++ {
				plan := make([]int, 30)
				for j := range plan {
					plan[j] = rng.Intn(len(objs))
				}
				mu := mus[w]
				site := "s" + string(rune('a'+w))
				base := w * 6 // objects partitioned per thread: consistent locking
				ws = append(ws, m.Go("w", func(th *sim.Thread) {
					for _, oi := range plan {
						th.Lock(mu, site)
						th.Write(objs[base+oi%6], 0, 8, "w")
						th.Unlock(mu)
						th.Compute(200)
					}
				}))
			}
			for _, w := range ws {
				m.Join(w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}

		for k := FirstRW; k <= LastRW; k++ {
			ks := det.key(k)
			if len(ks.holders) != 0 {
				t.Errorf("seed %d: key %s still has %d holders after exit", seed, k, len(ks.holders))
			}
			for id, os := range ks.objects {
				if os.domain != DomainReadWrite {
					t.Errorf("seed %d: key %s indexes object %d in domain %s", seed, k, id, os.domain)
				}
				if os.key != k {
					t.Errorf("seed %d: object %d indexed under %s but records key %s", seed, id, k, os.key)
				}
			}
		}
		// Every Read-write object is indexed under its key (unless
		// temporarily unprotected) and its pages carry that key.
		for _, os := range det.live {
			id := os.obj.ID
			if os.domain != DomainReadWrite || os.unprotected {
				continue
			}
			if _, ok := det.key(os.key).objects[id]; !ok {
				t.Errorf("seed %d: RW object %d missing from key %s index", seed, id, os.key)
			}
			pte, ok := e.Space().Peek(os.obj.Base)
			if !ok || mpk.Pkey(pte.Pkey) != os.key {
				t.Errorf("seed %d: object %d page key %d != recorded %s", seed, id, pte.Pkey, os.key)
			}
		}
	}
}

// TestPropertyKeyBudgetNeverExceeded: under any interleaving of key
// assignment, recycling, sharing, and injected pkey_alloc failures, the
// detector must stay inside its hardware budget — the invariant the
// detection service's per-job MaxRWKeys budget (and the x86 limit of 16
// pkeys) depends on:
//
//   - the distinct hardware keys protecting Read-write objects never
//     exceed Options.MaxRWKeys, and every one lies in [k1, k_budget];
//   - every page tag stays within the 16-key space;
//   - a degraded or recycled object lands in the Read-only domain with
//     its pages tagged k14 — never silently left writable;
//   - Read-write objects' pages carry exactly their recorded key.
func TestPropertyKeyBudgetNeverExceeded(t *testing.T) {
	var degradedTotal uint64
	for seed := int64(0); seed < 12; seed++ {
		budget := 1 + int(seed%4) // 1..4 hardware keys, far below demand
		var plan faultinject.Plan
		faulty := seed%2 == 1
		if faulty {
			// Deterministic rate-based pkey_alloc failures force the
			// degradation path on top of recycling and sharing.
			plan = faultinject.Plan{Salt: seed, Sites: map[faultinject.Site]faultinject.Rule{
				faultinject.SitePkeyAlloc: {Rate: 0.5},
			}}
		}
		rng := rand.New(rand.NewSource(seed * 1337))
		det := New(Options{MaxRWKeys: budget})
		e := sim.New(sim.Config{Seed: seed, UniquePageAllocator: true, Faults: plan}, det)
		nThr := 3
		nObjPer := 4 + rng.Intn(4) // nThr× this many objects compete for the keys
		_, err := e.Run(func(m *sim.Thread) {
			var ws []*sim.Thread
			for w := 0; w < nThr; w++ {
				objs := make([]*alloc.Object, nObjPer)
				for i := range objs {
					objs[i] = m.Malloc(uint64(16+rng.Intn(100)), "o")
				}
				mu := e.NewMutex("mu")
				site := "s" + string(rune('a'+w))
				steps := make([]int, 15+rng.Intn(20))
				for j := range steps {
					steps[j] = rng.Intn(nObjPer)
				}
				ws = append(ws, m.Go("w", func(th *sim.Thread) {
					for _, oi := range steps {
						th.Lock(mu, site)
						th.Write(objs[oi], 0, 8, "w")
						th.Unlock(mu)
						th.Compute(300)
					}
				}))
			}
			for _, w := range ws {
				m.Join(w)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		used := map[mpk.Pkey]bool{}
		lastAllowed := FirstRW + mpk.Pkey(budget) - 1
		for _, os := range det.live {
			id := os.obj.ID
			pte, ok := e.Space().Peek(os.obj.Base)
			if !ok {
				t.Fatalf("seed %d: object %d has no page table entry", seed, id)
			}
			if pte.Pkey > 15 {
				t.Errorf("seed %d: object %d page tag %d beyond the 16-key space", seed, id, pte.Pkey)
			}
			if os.unprotected {
				continue // interleaving termination: deliberately untagged
			}
			switch os.domain {
			case DomainReadWrite:
				if os.key < FirstRW || os.key > lastAllowed {
					t.Errorf("seed %d: RW object %d on key %s outside budget [%s, %s]",
						seed, id, os.key, FirstRW, lastAllowed)
				}
				used[os.key] = true
				if mpk.Pkey(pte.Pkey) != os.key {
					t.Errorf("seed %d: RW object %d page tag %d != key %s", seed, id, pte.Pkey, os.key)
				}
			case DomainReadOnly:
				if mpk.Pkey(pte.Pkey) != KeyRO {
					t.Errorf("seed %d: read-only object %d page tag %d, want k14 — a degraded object left writable",
						seed, id, pte.Pkey)
				}
			}
		}
		if len(used) > budget {
			t.Errorf("seed %d: %d distinct hardware keys in use, budget %d", seed, len(used), budget)
		}
		if faulty {
			degradedTotal += det.Counters().KeyAllocDegraded
		}
	}
	if degradedTotal == 0 {
		t.Error("no KeyAllocDegraded events across the faulty seeds: the degradation path went unexercised")
	}
}

// TestInvariantThreadKeysReleasedOutsideSections: whenever a thread is
// outside every critical section, its PKRU holds no Read-write domain
// keys and k15 is restored — checked from inside the program.
func TestInvariantThreadKeysReleasedOutsideSections(t *testing.T) {
	det := New(Options{})
	runDet(t, 5, det, func(e *sim.Engine, m *sim.Thread) {
		mus := []*sim.Mutex{e.NewMutex("a"), e.NewMutex("b")}
		o1, o2 := m.Malloc(32, "o1"), m.Malloc(32, "o2")
		check := func(w *sim.Thread) {
			for k := FirstRW; k <= LastRW; k++ {
				if w.PKRU.Perm(k) != mpk.PermNone {
					t.Errorf("thread %d holds %s outside sections", w.ID(), k)
				}
			}
			if w.PKRU.Perm(KeyNA) != mpk.PermRW {
				t.Errorf("thread %d lost k15 outside sections", w.ID())
			}
			if w.PKRU.Perm(KeyRO) != mpk.PermRead {
				t.Errorf("thread %d lost read access to k14", w.ID())
			}
		}
		var ws []*sim.Thread
		for i := 0; i < 2; i++ {
			i := i
			ws = append(ws, m.Go("w", func(w *sim.Thread) {
				for j := 0; j < 20; j++ {
					w.Lock(mus[i], "s"+string(rune('a'+i)))
					if i == 0 {
						w.Write(o1, 0, 8, "w")
					} else {
						w.Write(o2, 0, 8, "w")
					}
					w.Unlock(mus[i])
					check(w)
				}
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	})
}
