package sim

import (
	"fmt"

	"kard/internal/cycles"
)

// Cond is a simulated condition variable (pthread_cond_t) associated with
// a Mutex. Wait atomically releases the mutex and blocks; Signal wakes
// the min-clock waiter; Broadcast wakes all. Woken threads reacquire the
// mutex before Wait returns, so happens-before detectors see the ordering
// through the mutex itself, exactly as with pthreads.
type Cond struct {
	id      int
	mu      *Mutex
	name    string
	waiting []*Thread
	// lastSignal orders wakeups after the signaling thread.
	lastSignal cycles.Time
}

// NewCond creates a condition variable bound to mu.
func (e *Engine) NewCond(mu *Mutex, name string) *Cond {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &Cond{id: len(e.conds), mu: mu, name: name}
	e.conds = append(e.conds, c)
	return c
}

// Name returns the condition variable's debugging name.
func (c *Cond) Name() string { return c.name }

func (c *Cond) String() string { return fmt.Sprintf("cond(%s)", c.name) }

// Wait releases the condition's mutex, blocks until a Signal or
// Broadcast, and reacquires the mutex (re-entering the same critical
// section site) before returning. The thread must hold the mutex.
func (t *Thread) Wait(c *Cond) {
	t.submit(op{kind: opCondWait, cond: c})
}

// Signal wakes one waiter of c (the min-clock one), if any.
func (t *Thread) Signal(c *Cond) {
	t.submit(op{kind: opCondSignal, cond: c})
}

// Broadcast wakes every waiter of c.
func (t *Thread) Broadcast(c *Cond) {
	t.submit(op{kind: opCondBroadcast, cond: c})
}

// executeCond handles the three condition-variable operations.
func (e *Engine) executeCond(t *Thread, o op) {
	c := o.cond
	switch o.kind {
	case opCondWait:
		m := c.mu
		if m.holder != t {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d waiting on %s without holding %s", t.id, c, m)})
			return
		}
		// Release the mutex exactly as Unlock does, remembering the
		// section site to re-enter on wakeup.
		entry := t.popSection(m)
		if entry == nil {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d has no section for %s", t.id, m)})
			return
		}
		t.condSite = entry.Section.Site
		t.charge(e.detector.CSExit(t, entry.Section, m))
		e.leaveSection(entry.Section)
		delete(t.held, m)
		m.lastRelease = t.clock
		m.holder = nil
		c.waiting = append(c.waiting, t)
		e.wakeMutexWaiter(m)
		// t stays blocked until Signal/Broadcast.

	case opCondSignal:
		if len(c.waiting) > 0 {
			w := e.pickRWWaiter(&c.waiting)
			e.wakeWaiter(c, w, t)
		}
		t.charge(cycles.LockUncontended)
		e.wake(t, opResult{})

	case opCondBroadcast:
		for len(c.waiting) > 0 {
			w := e.pickRWWaiter(&c.waiting)
			e.wakeWaiter(c, w, t)
		}
		t.charge(cycles.LockUncontended)
		e.wake(t, opResult{})
	}
}

// wakeWaiter moves a waiter from the condition to the mutex: it must
// reacquire before Wait returns.
func (e *Engine) wakeWaiter(c *Cond, w *Thread, signaler *Thread) {
	w.clock = cycles.Max(w.clock, signaler.clock).Add(cycles.LockHandoff)
	m := c.mu
	if m.holder == nil {
		e.reacquireForWait(w, m)
		e.wake(w, opResult{})
		return
	}
	// Mutex busy: park the waiter on the mutex queue; the unlock path
	// will complete its reacquisition.
	w.pending = op{kind: opLock, mutex: m, site: w.condSite}
	m.waiters = append(m.waiters, w)
}

// reacquireForWait completes the mutex reacquisition of a woken waiter.
func (e *Engine) reacquireForWait(w *Thread, m *Mutex) {
	w.clock = cycles.Max(w.clock, m.lastRelease).Add(cycles.LockUncontended)
	e.grantLock(w, m, w.condSite)
}

// wakeMutexWaiter hands the mutex to its next waiter after a condition
// wait released it (same policy as the unlock path).
func (e *Engine) wakeMutexWaiter(m *Mutex) {
	if m.holder != nil || len(m.waiters) == 0 {
		return
	}
	w := e.dequeueWaiter(m)
	w.clock = cycles.Max(w.clock, m.lastRelease).Add(cycles.LockHandoff)
	m.contended++
	e.grantLock(w, m, w.pending.site)
	e.wake(w, opResult{})
}
