package sim

// Race provenance (DESIGN.md §13): a forensic record attached to every
// race report at detection time, answering the triage questions a bare
// (object, offset, two sites) tuple cannot — which locks the detecting
// thread held, how the object moved between protection domains, what the
// threads synchronized on recently, and at which batch drain detection
// happened.
//
// The raw material is collected allocation-free as the run executes: the
// engine stores synchronization edges into a fixed ring at sync
// operations (never on the access path), and the Kard detector keeps a
// small per-object domain history (internal/core). Assembling the record
// allocates, but only when a race is actually reported — race recording
// is already the allocating slow path.
//
// Every detector hook, and so every race report, runs on the goroutine
// holding the baton, one at a time. So BuildProvenance may read engine
// state without locking.

import (
	"sort"

	"kard/internal/cycles"
	"kard/internal/obs"
)

// syncRingSize is the engine's synchronization-edge ring capacity;
// provenanceEdges is how many of the most recent edges a provenance
// record carries.
const (
	syncRingSize    = 64
	provenanceEdges = 16
)

// SyncEdge is one synchronization operation observed by the engine.
type SyncEdge struct {
	// Kind is "lock", "unlock", "barrier", "spawn", "join", or "exit".
	Kind string
	// Thread is the acting thread. Other is edge-specific: the peer
	// thread for spawn/join, the participant count for barrier, -1
	// otherwise.
	Thread int
	Other  int
	// Label is the lock call site (lock), mutex name (unlock), or child
	// name (spawn); empty otherwise.
	Label string `json:",omitempty"`
	// Time is the acting thread's virtual clock at the edge.
	Time cycles.Time
}

// DomainStep is one protection-domain transition of an object under the
// Kard detector: the domain entered, the owning pkey when relevant, and
// the virtual time of the transition.
type DomainStep struct {
	Domain string
	Key    int `json:",omitempty"`
	Time   cycles.Time
}

// AccessDesc describes one side of a conflicting access pair.
type AccessDesc struct {
	Thread     int
	ThreadName string `json:",omitempty"`
	Site       string
	Section    string `json:",omitempty"`
	Kind       string `json:",omitempty"`
}

// RaceProvenance is the forensic record attached to a Race.
type RaceProvenance struct {
	// First is the earlier conflicting access (the remembered holder or
	// previous accessor), Second the access that triggered detection.
	First  AccessDesc
	Second AccessDesc
	// LocksHeld names the mutexes the detecting thread held, sorted.
	LocksHeld []string `json:",omitempty"`
	// DomainHistory is the object's recent protection-domain transitions,
	// oldest first (Kard detector only; nil for tsan/lockset).
	DomainHistory []DomainStep `json:",omitempty"`
	// Drain is the engine's batch-drain counter at detection — which
	// drain the run was in when the race surfaced. It is execution-mode
	// telemetry (serial runs never drain), so like BatchDrains it stays
	// out of the serialized record: the cross-mode differential oracle
	// byte-compares race reports, and only schedule-derived facts may
	// appear there. In-process consumers (the kardrace explainer) read
	// it from the live record.
	Drain uint64 `json:"-"`
	// SyncEdges are the most recent synchronization edges (≤
	// provenanceEdges), oldest first.
	SyncEdges []SyncEdge `json:",omitempty"`
}

// noteSync is the one record of a synchronization edge: it stores the
// edge into the engine's fixed ring and emits the matching trace instant,
// whose argKey argument carries label and (when non-negative) other, and
// whose "thread" argument the acting thread. A value store into a fixed
// array plus a nil-safe trace call: allocation-free, and only on the
// goroutine holding the baton.
func (e *Engine) noteSync(kind, argKey string, thread, other int, label string, at cycles.Time) {
	e.syncRing[e.syncCount%syncRingSize] = SyncEdge{
		Kind: kind, Thread: thread, Other: other, Label: label, Time: at,
	}
	e.syncCount++
	e.tr.InstantArg2(kind, "sim", int64(at), argKey, label, int64(other), "thread", int64(thread))
}

// BuildProvenance assembles the forensic record for a freshly built race
// report: the access pair from the report itself, the detecting thread's
// held locks, the engine's drain position, and the recent sync
// edges. Detector-specific context (Kard's domain history) is filled in
// by the caller afterwards. Must run on the goroutine holding the baton,
// where all race recording happens.
func (e *Engine) BuildProvenance(r *Race) *RaceProvenance {
	p := &RaceProvenance{
		First: AccessDesc{
			Thread:  r.OtherThread,
			Site:    r.OtherSite,
			Section: r.OtherSection,
		},
		Second: AccessDesc{
			Thread:  r.Thread,
			Site:    r.Site,
			Section: r.Section,
			Kind:    r.Kind.String(),
		},
		Drain: e.batchDrains,
	}
	if r.OtherThread >= 0 && r.OtherThread < len(e.threads) {
		p.First.ThreadName = e.threads[r.OtherThread].name
	}
	if r.Thread >= 0 && r.Thread < len(e.threads) {
		t := e.threads[r.Thread]
		p.Second.ThreadName = t.name
		if len(t.held) > 0 {
			p.LocksHeld = make([]string, 0, len(t.held))
			for m := range t.held {
				p.LocksHeld = append(p.LocksHeld, m.name)
			}
			sort.Strings(p.LocksHeld)
		}
	}
	n := e.syncCount
	take := uint64(provenanceEdges)
	if n < take {
		take = n
	}
	if take > 0 {
		p.SyncEdges = make([]SyncEdge, 0, take)
		for i := n - take; i < n; i++ {
			p.SyncEdges = append(p.SyncEdges, e.syncRing[i%syncRingSize])
		}
	}
	obs.Std.TraceProvenance.Inc()
	e.tr.InstantArg2("race", "sim", int64(r.Time), "site", r.Site, -1, "thread", int64(r.Thread))
	return p
}
