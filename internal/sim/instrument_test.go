package sim

import (
	"bytes"
	"strings"
	"testing"

	"kard/internal/trace"
)

// TestEngineTraceDeterministic: two same-seed runs of the same workload
// must export byte-identical Chrome JSON, and the export must carry the
// engine's structural events (run span, drains) and its sync and
// malloc/free instants.
func TestEngineTraceDeterministic(t *testing.T) {
	export := func() string {
		tr := trace.NewTracer(7, "sim-test", 0)
		e := New(Config{Seed: 7, Trace: tr.Track(1, 1, "cell", 0)}, nil)
		if _, err := e.Run(func(m *Thread) { batchWorkload(4, 400)(e, m) }); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := export(), export()
	if a != b {
		t.Fatal("same-seed traced runs exported different Chrome JSON")
	}
	for _, want := range []string{`"name":"run"`, `"name":"drain"`, `"name":"run.outcome"`,
		`"name":"lock"`, `"name":"unlock"`, `"name":"barrier"`, `"name":"spawn"`,
		`"name":"join"`, `"name":"exit"`, `"name":"malloc"`, `"name":"free"`} {
		if !strings.Contains(a, want) {
			t.Errorf("export missing %s", want)
		}
	}
	if strings.Contains(a, `"name":"epoch`) {
		t.Error("export carries an epoch event; the engine no longer runs epochs")
	}
}

// TestTracedRunMatchesUntraced: attaching a trace track must not change
// the run's statistics — tracing observes the schedule, never perturbs
// it.
func TestTracedRunMatchesUntraced(t *testing.T) {
	run := func(track *trace.Track) *Stats {
		e := New(Config{Seed: 3, Trace: track}, nil)
		st, err := e.Run(func(m *Thread) { batchWorkload(3, 300)(e, m) })
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := run(nil)
	tr := trace.NewTracer(3, "x", 0)
	traced := run(tr.Track(1, 1, "cell", 0))
	if plain.ExecTime != traced.ExecTime || plain.AccessUnits != traced.AccessUnits {
		t.Fatalf("tracing perturbed the run: %+v vs %+v", plain, traced)
	}
}

// TestBuildProvenance: the engine's sync-edge ring feeds race provenance
// with the most recent synchronization operations, and the detecting
// thread's held locks are named.
func TestBuildProvenance(t *testing.T) {
	e := New(Config{Seed: 1}, nil)
	var prov *RaceProvenance
	_, err := e.Run(func(m *Thread) {
		mu := e.NewMutex("guard")
		w := m.Go("worker", func(w *Thread) {
			obj := w.Malloc(64, "obj")
			w.Lock(mu, "crit")
			w.Write(obj, 0, 8, "w-site")
			w.Flush()
			r := Race{
				Detector: "test", Object: obj,
				Thread: w.ID(), Site: "w-site", Section: "crit",
				OtherThread: 0, OtherSite: "other-site",
				Time: w.Now(),
			}
			prov = w.Engine().BuildProvenance(&r)
			w.Unlock(mu)
		})
		m.Join(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if prov == nil {
		t.Fatal("no provenance built")
	}
	if prov.Second.Site != "w-site" || prov.Second.ThreadName != "worker" {
		t.Errorf("second access: %+v", prov.Second)
	}
	if prov.First.Site != "other-site" || prov.First.ThreadName != "main" {
		t.Errorf("first access: %+v", prov.First)
	}
	if len(prov.LocksHeld) != 1 || prov.LocksHeld[0] != "guard" {
		t.Errorf("locks held: %v", prov.LocksHeld)
	}
	var sawSpawn, sawLock bool
	for _, edge := range prov.SyncEdges {
		switch edge.Kind {
		case "spawn":
			sawSpawn = true
		case "lock":
			sawLock = true
			if edge.Label != "crit" {
				t.Errorf("lock edge label %q, want crit", edge.Label)
			}
		}
	}
	if !sawSpawn || !sawLock {
		t.Errorf("sync edges missing spawn/lock: %+v", prov.SyncEdges)
	}
}

// TestSyncRingWraps: the fixed edge ring keeps only the most recent
// edges; provenance carries at most provenanceEdges of them, the newest
// last.
func TestSyncRingWraps(t *testing.T) {
	e := New(Config{Seed: 2}, nil)
	var prov *RaceProvenance
	_, err := e.Run(func(m *Thread) {
		mu := e.NewMutex("mu")
		for i := 0; i < 3*syncRingSize; i++ {
			m.Lock(mu, "s")
			m.Unlock(mu)
		}
		r := Race{Detector: "test", Thread: m.ID(), Time: m.Now()}
		prov = e.BuildProvenance(&r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.SyncEdges) != provenanceEdges {
		t.Fatalf("got %d edges, want %d", len(prov.SyncEdges), provenanceEdges)
	}
	for i := 1; i < len(prov.SyncEdges); i++ {
		if prov.SyncEdges[i].Time < prov.SyncEdges[i-1].Time {
			t.Fatalf("edges out of order at %d: %+v", i, prov.SyncEdges)
		}
	}
	// The newest edge must be the last unlock, not something evicted.
	last := prov.SyncEdges[len(prov.SyncEdges)-1]
	if last.Kind != "unlock" {
		t.Fatalf("newest edge %+v, want the final unlock", last)
	}
}
