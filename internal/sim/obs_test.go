package sim

import (
	"strings"
	"testing"

	"kard/internal/faultinject"
	"kard/internal/obs"
)

// obsSnap captures the global counters a run is expected to move. Tests
// in this package run sequentially, so deltas against the process-wide
// registry are exact.
type obsSnap struct {
	runsOK, runsFailed, accessUnits, tlbHits, tlbMisses, mmap, injected uint64
}

func snapObs() obsSnap {
	m := obs.Std
	return obsSnap{
		runsOK:      m.SimRunsOK.Value(),
		runsFailed:  m.SimRunsFailed.Value(),
		accessUnits: m.SimAccessUnits.Value(),
		tlbHits:     m.MemTLBHits.Value(),
		tlbMisses:   m.MemTLBMisses.Value(),
		mmap:        m.MemMmapCalls.Value(),
		injected:    m.SimFaultsInjected.Value(),
	}
}

// TestFinishObsPublishesRunTotals: a run with live metrics off publishes
// its access units, TLB traffic, and outcome exactly once, at teardown.
func TestFinishObsPublishesRunTotals(t *testing.T) {
	before := snapObs()
	e := New(Config{}, nil)
	st, err := e.Run(func(m *Thread) {
		obj := m.Malloc(64, "obj")
		for i := 0; i < 10; i++ {
			m.Read(obj, 0, 8, "r")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	after := snapObs()
	if got := after.runsOK - before.runsOK; got != 1 {
		t.Errorf("runs_total{outcome=ok} moved by %d, want 1", got)
	}
	if got := after.accessUnits - before.accessUnits; got != st.AccessUnits {
		t.Errorf("access units moved by %d, want the run's %d", got, st.AccessUnits)
	}
	if got := after.tlbMisses - before.tlbMisses; got != st.TLBMisses {
		t.Errorf("TLB misses moved by %d, want the run's %d", got, st.TLBMisses)
	}
	if after.tlbHits == before.tlbHits {
		t.Error("TLB hits did not move")
	}
	if after.mmap == before.mmap {
		t.Error("mmap calls did not move")
	}
	// Depth histogram saw the run's page walks.
	if obs.Std.MemRadixDepth.Count() == 0 {
		t.Error("radix-walk depth histogram is empty after a run")
	}
}

// TestMetricsLiveMode: with Config.Metrics on, access units are published
// while the run goes on — a mid-run Flush returns with the flushed
// accesses already counted — and what teardown adds completes the run's
// total without counting anything twice.
func TestMetricsLiveMode(t *testing.T) {
	before := snapObs()
	e := New(Config{Metrics: true}, nil)
	var live, executed uint64
	st, err := e.Run(func(m *Thread) {
		obj := m.Malloc(64, "obj")
		for i := 0; i < 25; i++ {
			m.Write(obj, 0, 8, "w")
		}
		m.Flush()
		live = obs.Std.SimAccessUnits.Value() - before.accessUnits
		executed = m.accessUnits
		for i := 0; i < 25; i++ {
			m.Write(obj, 0, 8, "w")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed == 0 || live != executed {
		t.Errorf("after a mid-run Flush the live counter held %d access units, want the %d executed so far", live, executed)
	}
	after := snapObs()
	if got := after.accessUnits - before.accessUnits; got != st.AccessUnits || got <= executed {
		t.Errorf("live mode published %d access units, want exactly the run's %d", got, st.AccessUnits)
	}
}

// TestFinishObsOnFailure: failed runs are counted under their outcome,
// injector tallies are flushed, and the error carries the flight dump.
func TestFinishObsOnFailure(t *testing.T) {
	before := snapObs()
	e := New(Config{Faults: everyRule(faultinject.SiteMalloc, false)}, nil)
	_, err := e.Run(func(m *Thread) { m.Malloc(64, "obj") })
	if err == nil {
		t.Fatal("run with always-failing malloc succeeded")
	}
	after := snapObs()
	if got := after.runsFailed - before.runsFailed; got != 1 {
		t.Errorf("runs_total{outcome=failed} moved by %d, want 1", got)
	}
	if after.injected == before.injected {
		t.Error("injected-fault counter did not move")
	}
	if !strings.Contains(err.Error(), "flight recorder") {
		t.Errorf("run-failed error has no flight-recorder dump:\n%v", err)
	}
}
