package main

import (
	"sync"
	"sync/atomic"
	"time"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/sim"
)

// sampleEvery is how often the per-access hooks are timed: reading the
// clock costs about as much as one access, so timing every call would
// double what it measures.
const sampleEvery = 64

// clockCost is the host time one time.Now/time.Since pair adds to a
// timed call, subtracted from every timed sample. It is measured on first
// use, so untraced runs never pay for it.
var clockCost = sync.OnceValue(func() time.Duration {
	best := time.Duration(1 << 62)
	for round := 0; round < 5; round++ {
		const n = 20000
		t := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Since(time.Now())
		}
		if d := time.Since(t) / n; d < best {
			best = d
		}
	}
	return best
})

// hookTimer accumulates the host time of one kind of hook call.
// OnAccess runs concurrently inside parallel epochs, so every field is
// atomic.
type hookTimer struct {
	calls, timed atomic.Uint64
	ns           atomic.Int64
}

// sample reports whether this call is one to time.
func (h *hookTimer) sample() bool { return h.calls.Add(1)%sampleEvery == 0 }

func (h *hookTimer) record(d time.Duration) {
	h.timed.Add(1)
	h.ns.Add(int64(d - clockCost()))
}

// total extrapolates the timed calls to all calls.
func (h *hookTimer) total() time.Duration {
	timed := h.timed.Load()
	if timed == 0 {
		return 0
	}
	per := float64(h.ns.Load()) / float64(timed)
	if per < 0 {
		per = 0
	}
	return time.Duration(per * float64(h.calls.Load()))
}

// timedDetector forwards every hook to the detector it wraps and times
// it. It implements sim.EpochDetector (forwarding EpochCheck and
// EpochCost) and FlushObs, and never SerialOnly, so the engine keeps its
// default parallel path; the traced run checks that it did.
type timedDetector struct {
	sim.EpochDetector
	access, check, cost hookTimer // sampled
	other               hookTimer // every call
}

func newTimedDetector(d sim.EpochDetector) *timedDetector {
	return &timedDetector{EpochDetector: d}
}

// hookTime is the estimated host time spent inside the wrapped detector.
func (d *timedDetector) hookTime() time.Duration {
	return d.access.total() + d.check.total() + d.cost.total() + d.other.total()
}

func (d *timedDetector) timeOther(t time.Time) {
	d.other.calls.Add(1)
	d.other.record(time.Since(t))
}

func (d *timedDetector) OnAccess(a *sim.Access) cycles.Duration {
	if !d.access.sample() {
		return d.EpochDetector.OnAccess(a)
	}
	t := time.Now()
	c := d.EpochDetector.OnAccess(a)
	d.access.record(time.Since(t))
	return c
}

func (d *timedDetector) EpochCheck(a *sim.Access) bool {
	if !d.check.sample() {
		return d.EpochDetector.EpochCheck(a)
	}
	t := time.Now()
	ok := d.EpochDetector.EpochCheck(a)
	d.check.record(time.Since(t))
	return ok
}

func (d *timedDetector) EpochCost(a *sim.Access) cycles.Duration {
	if !d.cost.sample() {
		return d.EpochDetector.EpochCost(a)
	}
	t := time.Now()
	c := d.EpochDetector.EpochCost(a)
	d.cost.record(time.Since(t))
	return c
}

func (d *timedDetector) ThreadStarted(t *sim.Thread) {
	s := time.Now()
	d.EpochDetector.ThreadStarted(t)
	d.timeOther(s)
}

func (d *timedDetector) ThreadExited(t *sim.Thread) {
	s := time.Now()
	d.EpochDetector.ThreadExited(t)
	d.timeOther(s)
}

func (d *timedDetector) ThreadSpawned(parent, child *sim.Thread) {
	s := time.Now()
	d.EpochDetector.ThreadSpawned(parent, child)
	d.timeOther(s)
}

func (d *timedDetector) ThreadJoined(joiner, target *sim.Thread) {
	s := time.Now()
	d.EpochDetector.ThreadJoined(joiner, target)
	d.timeOther(s)
}

func (d *timedDetector) ObjectAllocated(t *sim.Thread, o *alloc.Object) cycles.Duration {
	s := time.Now()
	c := d.EpochDetector.ObjectAllocated(t, o)
	d.timeOther(s)
	return c
}

func (d *timedDetector) ObjectFreed(t *sim.Thread, o *alloc.Object) cycles.Duration {
	s := time.Now()
	c := d.EpochDetector.ObjectFreed(t, o)
	d.timeOther(s)
	return c
}

func (d *timedDetector) CSEnter(t *sim.Thread, cs *sim.CriticalSection, m *sim.Mutex) cycles.Duration {
	s := time.Now()
	c := d.EpochDetector.CSEnter(t, cs, m)
	d.timeOther(s)
	return c
}

func (d *timedDetector) CSExit(t *sim.Thread, cs *sim.CriticalSection, m *sim.Mutex) cycles.Duration {
	s := time.Now()
	c := d.EpochDetector.CSExit(t, cs, m)
	d.timeOther(s)
	return c
}

func (d *timedDetector) BarrierPassed(ts []*sim.Thread) cycles.Duration {
	s := time.Now()
	c := d.EpochDetector.BarrierPassed(ts)
	d.timeOther(s)
	return c
}

// FlushObs forwards the engine's teardown hook when the wrapped detector
// has one.
func (d *timedDetector) FlushObs() {
	if f, ok := d.EpochDetector.(interface{ FlushObs() }); ok {
		f.FlushObs()
	}
}
