// Package core implements the Kard data race detector: key-enforced race
// detection (§4, Algorithm 1) realized with per-thread memory protection.
//
// Kard classifies every sharable object into one of three protection
// domains (§5.2):
//
//   - Not-accessed (key k15): newly created objects. Threads hold k15
//     except while executing critical sections, so the first access to a
//     sharable object from inside a critical section raises a #GP, which
//     is how Kard discovers shared objects without instrumenting memory
//     accesses (§5.3).
//   - Read-only (key k14): objects only ever read inside critical
//     sections. Every thread permanently holds k14 read-only.
//   - Read-write (keys k1..k13): objects written inside critical
//     sections. A thread acquires a Read-write key with read-write
//     permission only if no other thread holds it, or with read-only
//     permission if no other thread holds it read-write — shared read,
//     exclusive write (§4).
//
// Faults that are not domain migrations are analyzed as potential data
// races, verified by protection interleaving (§5.5, Figure 4) and pruned
// of redundant or different-offset reports.
package core

import (
	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mpk"
	"kard/internal/obs"
	"kard/internal/sim"
)

// Protection domain key layout (§5.2).
const (
	// KeyDef is k0, the default key protecting non-sharable memory and
	// always-accessible data such as mutexes.
	KeyDef = mpk.KeyDefault
	// FirstRW..LastRW are the 13 keys available for the Read-write
	// domain.
	FirstRW mpk.Pkey = 1
	LastRW  mpk.Pkey = 13
	// KeyRO is k14, the Read-only domain key.
	KeyRO mpk.Pkey = 14
	// KeyNA is k15, the Not-accessed domain key.
	KeyNA mpk.Pkey = 15
)

// NumRWKeys is the number of Read-write domain keys.
const NumRWKeys = int(LastRW-FirstRW) + 1

// Domain is a protection domain (§5.2).
type Domain uint8

const (
	DomainNotAccessed Domain = iota
	DomainReadOnly
	DomainReadWrite
)

func (d Domain) String() string {
	switch d {
	case DomainNotAccessed:
		return "not-accessed"
	case DomainReadOnly:
		return "read-only"
	case DomainReadWrite:
		return "read-write"
	default:
		return "invalid"
	}
}

// Options configure the detector.
type Options struct {
	// DisableInterleaving turns protection interleaving off (ablation;
	// §5.5 argues it is what keeps false positives low).
	DisableInterleaving bool

	// DisableProactive turns proactive key acquisition at critical
	// section entries off, forcing every re-access to fault (ablation;
	// §5.4 introduces proactive acquisition to avoid exactly that).
	DisableProactive bool

	// NonILUExtension enables the §8 extension: threads also claim
	// protection keys for shared objects while outside critical
	// sections, releasing them at their next synchronization operation.
	// Off by default, as in the paper.
	NonILUExtension bool

	// SoftwareFallback enables the §8 software fallback: instead of
	// sharing hardware keys when all are held (rule 3b), overflow
	// objects get unlimited virtual keys behind a reserved trap key —
	// precise but paying a software check per access. Off by default,
	// as in the paper.
	SoftwareFallback bool

	// FaultWindow overrides the fault-handling delay used to decide
	// whether a released key was still held when a fault was raised
	// (§5.5). Zero selects the paper's 24,000 cycles.
	FaultWindow cycles.Duration

	// MaxRWKeys caps the hardware Read-write keys available to this run
	// (1..13, 0 = all). The detection service uses it as a per-job pkey
	// budget: beyond the cap the detector recycles, shares, or degrades
	// per §5.4/§8 exactly as it does at genuine key exhaustion, so a
	// budgeted job can never starve other tenants of keys.
	MaxRWKeys int
}

// Detector is the Kard runtime. Create one per run with New and pass it to
// sim.New.
type Detector struct {
	opts Options
	eng  *sim.Engine

	// live lists every tracked sharable object's domain state, for
	// Counters; objState.live is each record's index. The record itself
	// hangs off the object, in alloc.Object.DetectorState.
	live []*objState

	// keys is the key-section map (§5.3, Figure 3): for every
	// Read-write key, which objects it protects and which threads and
	// sections currently hold it.
	keys [NumRWKeys]keyState

	// pending holds objects under active protection interleaving;
	// unprot holds objects temporarily de-protected after one.
	pending map[*objState]struct{}
	unprot  map[*objState]struct{}

	// softKeys is the virtual-key table of the §8 software fallback.
	softKeys    []*keyState
	nextSoftKey int

	// runtimeFree is the virtual time at which Kard's internal runtime
	// lock becomes free. Key acquisition is racy, so Kard synchronizes
	// its section-object and key-section map updates with internal
	// atomic operations (§5.4); that serialization is what limits
	// scalability at high thread counts (§7.4, Figure 5).
	runtimeFree cycles.Time

	races  []sim.Race
	seen   map[raceKey]int // dedupe index into races
	counts Counts

	// occupied is this detector's contribution to the global
	// pkey-occupancy gauge: Read-write keys currently protecting at
	// least one object. Maintained by keyObjInsert/keyObjDelete and
	// retracted by FlushObs when the run tears down.
	occupied int
}

// Counts are Kard's internal event counters, feeding Tables 3–6.
type Counts struct {
	Faults               uint64 // all #GPs
	IdentificationFaults uint64 // kna faults: shared object discovery
	MigrationFaults      uint64 // RO→RW domain migrations
	RaceFaults           uint64 // faults analyzed as potential races
	KeyRecyclingEvents   uint64 // Table 5
	KeySharingEvents     uint64 // Table 5
	InterleaveStarted    uint64
	InterleaveResolved   uint64
	PrunedSpurious       uint64 // different-offset reports removed
	PrunedRedundant      uint64 // duplicate reports suppressed
	SharedRO             int    // objects currently in the Read-only domain
	SharedRWEver         int    // objects ever migrated to Read-write
	ProactiveAcquires    uint64
	ReactiveAcquires     uint64
	SoftwareObjects      uint64 // objects under the §8 software fallback
	SoftwareFaults       uint64 // software-protection traps taken

	// Degradation counters (fault injection): transient pkey_mprotect
	// failures retried, objects left with a stale page tag after retries
	// were exhausted, and key allocations degraded because pkey_alloc
	// failed.
	ProtectRetries   uint64
	ProtectDegraded  uint64
	KeyAllocDegraded uint64
}

// raceKey dedupes reports: same object, same offset, same section pair
// (§5.5 automated pruning (a)).
type raceKey struct {
	obj            alloc.ObjectID
	off            uint64
	kind           mpk.AccessKind
	section, other string
}

// New creates a Kard detector.
func New(opts Options) *Detector {
	if opts.FaultWindow == 0 {
		opts.FaultWindow = cycles.Fault
	}
	return &Detector{
		opts:    opts,
		seen:    make(map[raceKey]int),
		pending: make(map[*objState]struct{}),
		unprot:  make(map[*objState]struct{}),
	}
}

// Name implements sim.Detector.
func (d *Detector) Name() string { return "kard" }

// Setup implements sim.Detector.
func (d *Detector) Setup(e *sim.Engine) {
	d.eng = e
	for i := range d.keys {
		d.keys[i].init()
	}
}

// Counters returns a snapshot of the internal event counters.
func (d *Detector) Counters() Counts {
	c := d.counts
	c.SharedRO = 0
	for _, os := range d.live {
		if os.domain == DomainReadOnly {
			c.SharedRO++
		}
	}
	return c
}

// Races implements sim.Detector: the filtered race reports.
func (d *Detector) Races() []sim.Race {
	out := make([]sim.Race, 0, len(d.races))
	for _, r := range d.races {
		if r.Detector != "" { // pruned records are zeroed in place
			out = append(out, r)
		}
	}
	return out
}

// Finish implements sim.Detector. Interleavings still pending at program
// exit keep their candidate reports: Kard cannot verify them, which is how
// the pigz false positive survives (§7.3).
func (d *Detector) Finish() {}

// FlushObs implements the engine's optional teardown hook: the detector's
// keys stop existing with the run, so its contribution to the global
// pkey-occupancy gauge is retracted. The engine calls this on every run
// exit path — Finish only runs on success, which would leak occupancy
// from watchdog-torn and failed runs.
func (d *Detector) FlushObs() {
	if d.occupied != 0 {
		obs.Std.MpkPkeyOccupancy.Add(-int64(d.occupied))
		d.occupied = 0
	}
}

// objState is Kard's per-object record: current domain, assigned key, and
// interleaving state. It lives in the object's DetectorState from the
// object's allocation (or first fault) to its free.
type objState struct {
	obj    *alloc.Object
	live   int // index in Detector.live
	domain Domain
	// key is the Read-write domain key protecting the object, valid
	// when domain == DomainReadWrite and unprotected is false.
	key mpk.Pkey
	// everRW marks objects that have entered the Read-write domain.
	everRW bool
	// readerSections are the critical sections that read this object
	// while it was in the Read-only domain, used to judge writes that
	// fault on k14.
	readerSections map[*sim.CriticalSection]struct{}
	// unprotected marks objects temporarily de-protected to terminate
	// an interleaving (§5.5); parties lists the threads whose critical
	// section exits re-arm protection.
	unprotected bool
	parties     map[*sim.Thread]struct{}
	inter       *interleaveState

	// Software-fallback state (§8): soft objects live under a virtual
	// key; softLast remembers the previous access for inline offset
	// pruning.
	soft          bool
	softKey       int
	softLast      accessRec
	softLastValid bool

	// history is the object's recent protection-domain transitions
	// (oldest dropped beyond domainHistoryLen), feeding race provenance.
	// The initial Not-accessed state is implicit; only migrations record.
	history []sim.DomainStep
}

// domainHistoryLen bounds the per-object domain-transition history kept
// for race provenance. Transitions happen on the fault-handling path,
// never per access, so the append cost rides an already-expensive event.
const domainHistoryLen = 16

// noteDomain records the object's just-entered domain in its provenance
// history. Call after mutating os.domain; t may be nil (startup).
func noteDomain(os *objState, t *sim.Thread, key int) {
	var at cycles.Time
	if t != nil {
		at = t.Now()
	}
	step := sim.DomainStep{Domain: os.domain.String(), Key: key, Time: at}
	if len(os.history) >= domainHistoryLen {
		copy(os.history, os.history[1:])
		os.history[len(os.history)-1] = step
		return
	}
	os.history = append(os.history, step)
}

// objStateMetadataBytes approximates Kard's per-object metadata charge
// against simulated RSS (§7.5 attributes part of Kard's memory overhead to
// the section-object and key-section maps).
const objStateMetadataBytes = 112

// state returns (creating if needed) the detector record for o.
func (d *Detector) state(o *alloc.Object) *objState {
	if os, ok := o.DetectorState.(*objState); ok {
		return os
	}
	os := &objState{obj: o, live: len(d.live), domain: DomainNotAccessed}
	o.DetectorState = os
	d.live = append(d.live, os)
	d.eng.Space().ChargeMetadata(objStateMetadataBytes)
	return os
}

// drop detaches o's record from the object and the live list.
func (d *Detector) drop(os *objState) {
	last := d.live[len(d.live)-1]
	d.live[os.live] = last
	last.live = os.live
	d.live = d.live[:len(d.live)-1]
	os.obj.DetectorState = nil
}
