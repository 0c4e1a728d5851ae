// Package lockset implements an Eraser-style lockset data race detector
// (Savage et al., TOCS 1997), the algorithm that inspired Kard's
// inconsistent-lock-usage scope (§3.1).
//
// Each sharable object carries a candidate lockset C(v), refined at every
// access to the intersection of the locks the accessing thread holds. The
// object moves through the Eraser state machine — Virgin → Exclusive →
// Shared → Shared-Modified — and a warning is issued when C(v) becomes
// empty in the Shared-Modified state.
//
// Unlike Kard (and unlike happens-before detectors), lockset is agnostic
// to whether the two inconsistently locked accesses can actually execute
// concurrently, which is why it reports false races that Kard's
// schedule-sensitive scope avoids (§3.1) — the package exists to
// demonstrate exactly that trade-off.
package lockset

import (
	"sort"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mpk"
	"kard/internal/sim"
)

// state is the Eraser ownership state of one object.
type state uint8

const (
	virgin state = iota
	exclusive
	shared
	sharedModified
)

// objInfo is the per-object lockset record, kept in the object's
// DetectorState.
type objInfo struct {
	st       state
	owner    int   // owning thread while exclusive
	lockset  []int // candidate lockset C(v), sorted mutex IDs; nil means "all locks" (unrefined)
	refined  bool
	reported bool
	lastSite string
	lastTID  int
}

// Detector is the Eraser-style detector.
type Detector struct {
	eng   *sim.Engine
	races []sim.Race
}

// New creates a lockset detector.
func New() *Detector { return &Detector{} }

// Name implements sim.Detector.
func (d *Detector) Name() string { return "lockset" }

// Setup implements sim.Detector.
func (d *Detector) Setup(e *sim.Engine) { d.eng = e }

func (d *Detector) ThreadStarted(t *sim.Thread)                    {}
func (d *Detector) ThreadExited(t *sim.Thread)                     {}
func (d *Detector) ThreadSpawned(p, c *sim.Thread)                 {}
func (d *Detector) ThreadJoined(j, t *sim.Thread)                  {}
func (d *Detector) BarrierPassed(ts []*sim.Thread) cycles.Duration { return 0 }

// ObjectAllocated implements sim.Detector.
func (d *Detector) ObjectAllocated(t *sim.Thread, o *alloc.Object) cycles.Duration {
	o.DetectorState = &objInfo{st: virgin}
	return cycles.AtomicOp
}

// ObjectFreed implements sim.Detector.
func (d *Detector) ObjectFreed(t *sim.Thread, o *alloc.Object) cycles.Duration {
	o.DetectorState = nil
	return cycles.AtomicOp
}

// CSEnter/CSExit: lockset needs no synchronization-time work beyond the
// engine's held-lock bookkeeping, but Eraser still pays wrapper costs.
func (d *Detector) CSEnter(t *sim.Thread, cs *sim.CriticalSection, m *sim.Mutex) cycles.Duration {
	return cycles.AtomicOp
}
func (d *Detector) CSExit(t *sim.Thread, cs *sim.CriticalSection, m *sim.Mutex) cycles.Duration {
	return cycles.AtomicOp
}

// heldLocks returns the sorted IDs of the mutexes t currently holds,
// derived from its active section entries.
func heldLocks(t *sim.Thread) []int {
	var ids []int
	for _, se := range t.Sections {
		ids = append(ids, se.Mutex.ID())
	}
	sort.Ints(ids)
	return ids
}

// intersect returns the sorted intersection of two sorted ID slices.
func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// OnAccess implements sim.Detector: the Eraser state machine.
func (d *Detector) OnAccess(a *sim.Access) cycles.Duration {
	t := a.Thread
	info, ok := a.Object.DetectorState.(*objInfo)
	if !ok {
		info = &objInfo{st: virgin}
		a.Object.DetectorState = info
	}
	cost := cycles.Duration(a.Units()) * cycles.LocksetAccess

	switch info.st {
	case virgin:
		info.st = exclusive
		info.owner = t.ID()
	case exclusive:
		if info.owner == t.ID() {
			break
		}
		if a.Kind == mpk.Write {
			info.st = sharedModified
		} else {
			info.st = shared
		}
		info.refine(t)
	case shared:
		info.refine(t)
		if a.Kind == mpk.Write {
			info.st = sharedModified
		}
	case sharedModified:
		info.refine(t)
	}

	if info.st == sharedModified && info.refined && len(info.lockset) == 0 && !info.reported {
		info.reported = true
		r := sim.Race{
			Detector:     "lockset",
			Object:       a.Object,
			Offset:       a.Offset(),
			Kind:         a.Kind,
			Thread:       t.ID(),
			Site:         a.Site,
			Section:      sectionLabel(t),
			OtherThread:  info.lastTID,
			OtherSite:    info.lastSite,
			OtherSection: "<lockset has no schedule info>",
			ILU:          true,
			Time:         t.Now(),
		}
		r.Provenance = t.Engine().BuildProvenance(&r)
		d.races = append(d.races, r)
	}
	info.lastSite = a.Site
	info.lastTID = t.ID()
	return cost
}

// refine intersects the candidate lockset with the accessor's held locks.
func (info *objInfo) refine(t *sim.Thread) {
	held := heldLocks(t)
	if !info.refined {
		info.lockset = held
		info.refined = true
		return
	}
	info.lockset = intersect(info.lockset, held)
}

// Finish implements sim.Detector.
func (d *Detector) Finish() {}

// Races implements sim.Detector.
func (d *Detector) Races() []sim.Race { return d.races }

func sectionLabel(t *sim.Thread) string {
	if cs := t.CurrentSection(); cs != nil {
		return cs.Site
	}
	return "<no section>"
}

// EpochCheck implements sim.EpochDetector: only the two ownership states
// that Eraser resolves without refining C(v) are epoch-safe — Virgin
// (becomes Exclusive, owned by the accessor) and Exclusive under the same
// owner. Both mutate only the object's own record and can never report.
// An object with no record (ObjectAllocated gives every heap object and
// global one) vetoes: creating the record inside an epoch would be safe,
// since it is object-local, but would change which epochs are admitted.
// Shared/Shared-Modified veto because refine may empty C(v) and report.
// Same-thread epoch commits preserve the verdict: Virgin can only advance
// to Exclusive-with-this-owner, which is itself safe.
func (d *Detector) EpochCheck(a *sim.Access) bool {
	info, ok := a.Object.DetectorState.(*objInfo)
	if !ok {
		return false
	}
	switch info.st {
	case virgin:
		return true
	case exclusive:
		return info.owner == a.Thread.ID()
	}
	return false
}

// EpochCost implements sim.EpochDetector: the per-unit Eraser charge,
// independent of detector state and thread clocks.
func (d *Detector) EpochCost(a *sim.Access) cycles.Duration {
	return cycles.Duration(a.Units()) * cycles.LocksetAccess
}

var (
	_ sim.Detector      = (*Detector)(nil)
	_ sim.EpochDetector = (*Detector)(nil)
)
