package sim

// Race provenance (DESIGN.md §13): a forensic record attached to every
// race report at detection time, answering the triage questions a bare
// (object, offset, two sites) tuple cannot — which locks the detecting
// thread held, how the object moved between protection domains, what the
// threads synchronized on recently, and where in the batched execution
// (epoch, drain) detection happened.
//
// The raw material is collected allocation-free as the run executes: the
// engine stores synchronization edges into a fixed ring at sync
// operations (never on the access path), and the Kard detector keeps a
// small per-object domain history (internal/core). Assembling the record
// allocates, but only when a race is actually reported — race recording
// is already the allocating slow path.
//
// Every detector records races on the scheduler goroutine: the scalar and
// batch-replay paths run there, and the EpochDetector contract forbids
// admitting an access that could report a race into a parallel epoch. So
// BuildProvenance may read engine state without locking.

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
	// Epoch and Drain are the engine's committed-epoch and batch-drain
	// counters at detection — which reconciliation epoch and which drain
	// the run was in when the race surfaced. They are execution-mode
	// telemetry (serial runs never drain), so like BatchStats they stay
	// out of the serialized record: the cross-mode differential oracle
	// byte-compares race reports, and only schedule-derived facts may
	// appear there. In-process consumers (the trace's race instants, the
	// kardrace explainer) read them from the live record.
	Epoch uint64 `json:"-"`
	Drain uint64 `json:"-"`
	// SyncEdges are the most recent synchronization edges (≤
	// provenanceEdges), oldest first.
	SyncEdges []SyncEdge `json:",omitempty"`
}

// noteSync is the one record of a synchronization edge: it stores the
// edge into the engine's fixed ring and emits the matching trace instant,
// whose argKey argument carries label and (when non-negative) other, and
// whose "thread" argument the acting thread. A value store into a fixed
// array plus a nil-safe trace call: allocation-free, scheduler-goroutine
// only.
func (e *Engine) noteSync(kind, argKey string, thread, other int, label string, at cycles.Time) {
	e.syncRing[e.syncCount%syncRingSize] = SyncEdge{
		Kind: kind, Thread: thread, Other: other, Label: label, Time: at,
	}
	e.syncCount++
	e.tr.InstantArg2(kind, "sim", int64(at), argKey, label, int64(other), "thread", int64(thread))
}

// BuildProvenance assembles the forensic record for a freshly built race
// report: the access pair from the report itself, the detecting thread's
// held locks, the engine's epoch/drain position, and the recent sync
// edges. Detector-specific context (Kard's domain history) is filled in
// by the caller afterwards. Must run on the scheduler goroutine, where
// all race recording happens.
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
		Epoch: e.epochCount,
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
