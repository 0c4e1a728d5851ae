// Package sim is the execution engine of the reproduction: simulated
// threads, locks, barriers, a deterministic discrete-event scheduler with
// per-thread virtual clocks, and the detector hook interface that the
// Kard, TSan-like, and lockset detectors plug into.
//
// The engine plays the role of the paper's LLVM compiler pass and wrapper
// library (§6): every heap allocation, synchronization call, and memory
// access of a simulated program flows through it, carrying a call-site
// label, before the pluggable detector observes the event.
//
// Scheduling is deterministic: all runnable threads park with their next
// operation, and the engine executes the operation of the thread with the
// smallest virtual clock (ties broken by a seed-keyed hash). Changing the
// seed changes interleavings, which is how schedule-sensitive behavior
// (§3.1) is explored reproducibly. There is no scheduler goroutine: each
// thread runs in its own goroutine, and a baton passed between them lets
// one run at a time. The thread that parks runs the pick/execute loop
// itself and keeps running when its own operation comes up first, so a
// park costs a goroutine switch only when another thread resumes.
package sim

import (
	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mem"
	"kard/internal/mpk"
)

// Access describes one (possibly batched) data access: Size contiguous
// bytes starting at Addr inside Object. A batched access models a loop
// over an array; under Kard the hardware would fault on the first touched
// byte, so fault semantics are unaffected by batching, while per-access
// detectors (TSan) charge per 8-byte unit.
type Access struct {
	Thread *Thread
	Object *alloc.Object
	Addr   mem.Addr
	Size   uint64
	Kind   mpk.AccessKind
	Site   string
}

// Offset returns the access offset within its object.
func (a *Access) Offset() uint64 { return uint64(a.Addr - a.Object.Base) }

// Units returns the number of 8-byte access units the batch represents;
// cost accounting and miss-rate denominators use it.
func (a *Access) Units() uint64 {
	u := (a.Size + 7) / 8
	if u == 0 {
		u = 1
	}
	return u
}

// Race is one potential data race record. Kard's record (§5.5) carries
// both critical sections, the faulted object, the faulting access type,
// thread identifiers and contexts, and a timestamp; the comparator
// detectors fill the same record so reports are directly comparable.
type Race struct {
	Detector string
	Object   *alloc.Object
	// Offset is the object-relative byte offset of the detected access.
	Offset uint64
	Kind   mpk.AccessKind
	// Thread/Site/Section describe the access that triggered detection.
	Thread  int
	Site    string
	Section string
	// OtherThread/OtherSite/OtherSection describe the conflicting
	// holder/accessor.
	OtherThread  int
	OtherSite    string
	OtherSection string
	// ILU reports whether at least one side held a lock (Table 1 scope;
	// Table 6 splits TSan reports into ILU and non-ILU).
	ILU bool
	// Time is the faulting thread's virtual clock at detection.
	Time cycles.Time
	// Provenance is the forensic record attached at detection time
	// (provenance.go): the conflicting access pair, locks held, the
	// object's protection-domain transition history (Kard only), recent
	// synchronization edges, and the detecting drain counter.
	Provenance *RaceProvenance `json:"provenance,omitempty"`
}

// Detector observes execution events and implements a data race detection
// scheme. Each hook returns the extra virtual cycles the observed thread
// must pay — the instrumentation cost of that scheme. Every hook runs on
// the goroutine holding the engine's baton, one at a time, so
// implementations need no internal locking.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string

	// Setup wires the detector to the engine before any event.
	Setup(e *Engine)

	// ThreadStarted and ThreadExited bracket a thread's life.
	ThreadStarted(t *Thread)
	ThreadExited(t *Thread)

	// ThreadSpawned fires after parent spawned child (both already
	// started); ThreadJoined fires when joiner observed target's exit.
	// Happens-before detectors order events through these edges.
	ThreadSpawned(parent, child *Thread)
	ThreadJoined(joiner, target *Thread)

	// ObjectAllocated fires after an object is allocated (or a global
	// registered, with t == nil during startup).
	ObjectAllocated(t *Thread, o *alloc.Object) cycles.Duration

	// ObjectFreed fires before an object is released.
	ObjectFreed(t *Thread, o *alloc.Object) cycles.Duration

	// CSEnter fires when t has acquired m at the critical section cs;
	// CSExit fires when t is about to release m and leave cs.
	CSEnter(t *Thread, cs *CriticalSection, m *Mutex) cycles.Duration
	CSExit(t *Thread, cs *CriticalSection, m *Mutex) cycles.Duration

	// OnAccess fires for every data access. The record behind a is
	// engine-owned, reused across calls (the zero-allocation fast path
	// depends on it): on the scalar and batch replay paths alike one
	// engine-level record carries every access in turn. Implementations
	// must therefore copy any fields they need and must not retain the
	// pointer past the call — a retained pointer's contents are
	// overwritten by the very next access (TestRetainingDetectorIsCaught
	// pins that).
	OnAccess(a *Access) cycles.Duration

	// BarrierPassed fires when all participants passed a barrier.
	// Happens-before detectors join clocks here.
	BarrierPassed(ts []*Thread) cycles.Duration

	// Finish fires once when the run ends.
	Finish()

	// Races returns the detector's filtered race reports.
	Races() []Race
}

// EpochDetector was the capability a Detector implemented to let access
// batches of different threads commit on concurrent goroutines
// (reconciliation epochs). The engine no longer runs epochs and never
// calls either method.
//
// Deprecated: kept only because the perfbench module still wraps
// detectors through it; delete it once perfbench no longer does.
type EpochDetector interface {
	Detector
	EpochCheck(a *Access) bool
	EpochCost(a *Access) cycles.Duration
}

// Baseline is the no-detection detector: it observes nothing and costs
// nothing. Baseline and Alloc configurations use it; they differ only in
// the allocator.
type Baseline struct{}

// NewBaseline returns the zero-cost detector.
func NewBaseline() *Baseline { return &Baseline{} }

func (*Baseline) Name() string                                              { return "baseline" }
func (*Baseline) Setup(*Engine)                                             {}
func (*Baseline) ThreadStarted(*Thread)                                     {}
func (*Baseline) ThreadExited(*Thread)                                      {}
func (*Baseline) ThreadSpawned(*Thread, *Thread)                            {}
func (*Baseline) ThreadJoined(*Thread, *Thread)                             {}
func (*Baseline) ObjectAllocated(*Thread, *alloc.Object) cycles.Duration    { return 0 }
func (*Baseline) ObjectFreed(*Thread, *alloc.Object) cycles.Duration        { return 0 }
func (*Baseline) CSEnter(*Thread, *CriticalSection, *Mutex) cycles.Duration { return 0 }
func (*Baseline) CSExit(*Thread, *CriticalSection, *Mutex) cycles.Duration  { return 0 }
func (*Baseline) OnAccess(*Access) cycles.Duration                          { return 0 }
func (*Baseline) BarrierPassed([]*Thread) cycles.Duration                   { return 0 }
func (*Baseline) Finish()                                                   {}
func (*Baseline) Races() []Race                                             { return nil }

var _ Detector = (*Baseline)(nil)
