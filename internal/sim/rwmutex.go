package sim

import (
	"fmt"

	"kard/internal/cycles"
)

// RWMutex is a simulated reader-writer lock (pthread_rwlock_t). Read
// sections are critical sections too: Kard's wrapper library traps both
// acquisition flavors, and readers acquire shared-object keys with
// read-only permission through the ordinary key-enforced rules.
//
// Writer-preference: once a writer waits, new readers queue behind it.
type RWMutex struct {
	id      int
	name    string
	writer  *Thread
	readers map[*Thread]bool
	// waitingW/R hold blocked acquirers in arrival order; the engine
	// wakes them with its deterministic min-clock policy.
	waitingW []*Thread
	waitingR []*Thread
	// inner carries the critical-section identity for detector hooks:
	// each RWMutex presents itself to detectors as a Mutex-like object.
	inner *Mutex

	lastRelease cycles.Time
}

// NewRWMutex creates a reader-writer lock.
func (e *Engine) NewRWMutex(name string) *RWMutex {
	e.mu.Lock()
	defer e.mu.Unlock()
	rw := &RWMutex{
		id:      len(e.rwmutexes),
		name:    name,
		readers: make(map[*Thread]bool),
		inner:   &Mutex{id: -1, name: name + ".rw"},
	}
	e.rwmutexes = append(e.rwmutexes, rw)
	return rw
}

// Name returns the lock's debugging name.
func (rw *RWMutex) Name() string { return rw.name }

func (rw *RWMutex) String() string { return fmt.Sprintf("rwmutex(%s)", rw.name) }

// RLock acquires rw for reading, entering the critical section at site.
func (t *Thread) RLock(rw *RWMutex, site string) {
	t.submit(op{kind: opRLock, rwmutex: rw, site: site})
}

// RUnlock releases a read hold on rw.
func (t *Thread) RUnlock(rw *RWMutex) {
	t.submit(op{kind: opRUnlock, rwmutex: rw})
}

// WLock acquires rw exclusively for writing, entering the critical
// section at site.
func (t *Thread) WLock(rw *RWMutex, site string) {
	t.submit(op{kind: opWLock, rwmutex: rw, site: site})
}

// WUnlock releases a write hold on rw.
func (t *Thread) WUnlock(rw *RWMutex) {
	t.submit(op{kind: opWUnlock, rwmutex: rw})
}

// executeRW handles the four reader-writer operations on the scheduler.
func (e *Engine) executeRW(t *Thread, o op) {
	rw := o.rwmutex
	switch o.kind {
	case opRLock:
		if rw.readers[t] || rw.writer == t {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d re-acquiring %s", t.id, rw)})
			return
		}
		if rw.writer != nil || len(rw.waitingW) > 0 {
			rw.waitingR = append(rw.waitingR, t)
			return
		}
		e.grantRead(t, rw, o.site)
		e.wake(t, opResult{})

	case opRUnlock:
		if !rw.readers[t] {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d read-unlocking %s it does not hold", t.id, rw)})
			return
		}
		e.exitRWSection(t, rw)
		delete(rw.readers, t)
		rw.lastRelease = t.clock
		e.wakeRW(rw)
		e.wake(t, opResult{})

	case opWLock:
		if rw.readers[t] || rw.writer == t {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d re-acquiring %s", t.id, rw)})
			return
		}
		if rw.writer != nil || len(rw.readers) > 0 {
			rw.waitingW = append(rw.waitingW, t)
			return
		}
		e.grantWrite(t, rw, o.site)
		e.wake(t, opResult{})

	case opWUnlock:
		if rw.writer != t {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d write-unlocking %s it does not hold", t.id, rw)})
			return
		}
		e.exitRWSection(t, rw)
		rw.writer = nil
		rw.lastRelease = t.clock
		e.wakeRW(rw)
		e.wake(t, opResult{})
	}
}

func (e *Engine) grantRead(t *Thread, rw *RWMutex, site string) {
	t.clock = cycles.Max(t.clock, rw.lastRelease).Add(cycles.LockUncontended)
	rw.readers[t] = true
	e.enterRWSection(t, rw, site)
}

func (e *Engine) grantWrite(t *Thread, rw *RWMutex, site string) {
	t.clock = cycles.Max(t.clock, rw.lastRelease).Add(cycles.LockUncontended)
	rw.writer = t
	e.enterRWSection(t, rw, site)
}

// enterRWSection mirrors grantLock's bookkeeping using the lock's inner
// mutex identity for detector hooks.
func (e *Engine) enterRWSection(t *Thread, rw *RWMutex, site string) {
	cs := e.section(site)
	cs.entries++
	e.totalCSEntries++
	t.Sections = append(t.Sections, &SectionEntry{Section: cs, Mutex: rw.inner, Enter: t.clock})
	e.enterSection(cs)
	t.charge(e.detector.CSEnter(t, cs, rw.inner))
}

func (e *Engine) exitRWSection(t *Thread, rw *RWMutex) {
	entry := t.popSection(rw.inner)
	if entry == nil {
		panic(fmt.Sprintf("sim: thread %d has no section for %s", t.id, rw))
	}
	t.charge(e.detector.CSExit(t, entry.Section, rw.inner))
	t.charge(cycles.LockUncontended)
	e.leaveSection(entry.Section)
}

// wakeRW admits the next waiters after a release: the min-clock waiting
// writer if the lock is free, otherwise (no writers waiting) every
// waiting reader.
func (e *Engine) wakeRW(rw *RWMutex) {
	if rw.writer != nil {
		return
	}
	if len(rw.waitingW) > 0 {
		if len(rw.readers) > 0 {
			return // writer must wait for readers to drain
		}
		w := e.pickRWWaiter(&rw.waitingW)
		w.clock = cycles.Max(w.clock, rw.lastRelease).Add(cycles.LockHandoff)
		e.grantWrite(w, rw, w.pending.site)
		e.wake(w, opResult{})
		return
	}
	for len(rw.waitingR) > 0 {
		r := e.pickRWWaiter(&rw.waitingR)
		r.clock = cycles.Max(r.clock, rw.lastRelease).Add(cycles.LockHandoff)
		e.grantRead(r, rw, r.pending.site)
		e.wake(r, opResult{})
	}
}

// pickRWWaiter removes and returns the min-clock thread from the queue.
func (e *Engine) pickRWWaiter(q *[]*Thread) *Thread {
	best := 0
	bestPrio := e.prio((*q)[0])
	for i := 1; i < len(*q); i++ {
		w := (*q)[i]
		switch {
		case w.clock < (*q)[best].clock:
			best, bestPrio = i, e.prio(w)
		case w.clock == (*q)[best].clock:
			if p := e.prio(w); p < bestPrio {
				best, bestPrio = i, p
			}
		}
	}
	w := (*q)[best]
	*q = append((*q)[:best], (*q)[best+1:]...)
	return w
}
