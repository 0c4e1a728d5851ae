package main

import (
	"strings"
	"testing"

	"kard/internal/sim"
)

// TestExplainRace renders hand-built provenance records: the access pair
// (named and unnamed threads, with and without a section and access
// kind), held locks or none, domain history with and without a pkey, the
// three sync-edge forms (labelled, peer, bare), and a race without
// provenance.
func TestExplainRace(t *testing.T) {
	full := &sim.RaceProvenance{
		First:     sim.AccessDesc{Thread: 1, ThreadName: "w1", Site: "put", Section: "cs0"},
		Second:    sim.AccessDesc{Thread: 2, Site: "get", Kind: "write"},
		LocksHeld: []string{"la", "lb"},
		DomainHistory: []sim.DomainStep{
			{Domain: "local", Time: 5},
			{Domain: "rw", Key: 3, Time: 1200},
		},
		Drain: 7,
		SyncEdges: []sim.SyncEdge{
			{Kind: "lock", Thread: 1, Other: -1, Label: "cs0", Time: 100},
			{Kind: "join", Thread: 0, Other: 2, Time: 300},
			{Kind: "exit", Thread: 2, Other: -1, Time: 400},
		},
	}
	bare := &sim.RaceProvenance{
		First:  sim.AccessDesc{Thread: 0, Site: "init"},
		Second: sim.AccessDesc{Thread: 3, ThreadName: "w3", Site: "poll", Section: "cs1", Kind: "read"},
	}
	for _, tc := range []struct {
		name string
		prov *sim.RaceProvenance
		want string
	}{
		{"full", full, `  first: access by w1 at "put" in cs0
  second: write by thread 2 at "get" in (no section)
  locks held at detection: [la lb]
  detected in batch drain 7
  protection-domain history (oldest first):
    t=5        local
    t=1200     rw (pkey 3)
  recent synchronization edges (oldest first):
    t=100      lock by thread 1 (cs0)
    t=300      join by thread 0 (peer 2)
    t=400      exit by thread 2
`},
		{"bare", bare, `  first: access by thread 0 at "init" in (no section)
  second: read by w3 at "poll" in cs1
  locks held at detection: none
  detected in batch drain 0
`},
		{"nil", nil, "  (no provenance recorded)\n"},
	} {
		var b strings.Builder
		explainRace(&b, sim.Race{Provenance: tc.prov})
		if got := b.String(); got != tc.want {
			t.Errorf("%s provenance:\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
