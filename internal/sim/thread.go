package sim

import (
	"fmt"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mem"
	"kard/internal/mpk"
)

// Thread is one simulated program thread. The workload body runs in its
// own goroutine, but every operation executes at the scheduler (accesses
// and computes in batches, DESIGN.md §12), and only the
// goroutine holding the engine's baton runs — body code or the scheduling
// loop — so at most one thread executes Go code at a time: runs are
// deterministic and body code may touch shared test/workload state
// without host-level data races.
//
// Thread methods panic on programming errors (double free, unlocking a
// mutex the thread does not hold); a simulated program that misuses the
// API is a bug in the workload, not a recoverable condition.
type Thread struct {
	id   int
	name string
	eng  *Engine

	// Clock is the thread's virtual time.
	clock cycles.Time

	// PKRU is the thread's protection-key rights register. Only the
	// Kard detector manipulates it; other detectors leave it at the
	// permissive reset value.
	PKRU mpk.PKRU

	// Sections is the thread's stack of active critical sections, the
	// innermost last. The engine maintains it; detectors read it.
	// Entries are values: entering a section allocates nothing once the
	// stack has grown to its depth.
	Sections []SectionEntry

	// Detector scratch: an arbitrary per-thread state pointer a
	// detector may hang its thread-local data on.
	DetectorState any

	held       map[*Mutex]bool
	condSite   string // section site to re-enter after a condition wait
	resume     chan opResult
	pending    op
	opCount    uint64
	done       bool
	final      cycles.Time
	scheduling bool // in park's engine code: a panic there holds the lock
	joiners    []*Thread

	// access statistics
	accessUnits uint64
	// Per-thread dTLB accounting, accumulated on both execution paths
	// (scalar and batch replay); TLBStats exposes it.
	tlbHits   uint64
	tlbMisses uint64

	// Batched execution (DESIGN.md §12): the fixed-capacity buffer
	// Read/Write/Sweep/Compute append to and the engine-side replay
	// cursor.
	batch    []batchEntry
	batchPos int
}

// SectionEntry is one active critical-section activation on a thread.
type SectionEntry struct {
	Section *CriticalSection
	Mutex   *Mutex
	// Enter is the thread's clock when it entered.
	Enter cycles.Time
}

// ID returns the thread identifier (main is 0).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's debugging name.
func (t *Thread) Name() string { return t.name }

// Now returns the thread's current virtual clock. Under batched
// execution (the default) it excludes buffered work: accesses, sweeps
// and computes the body has submitted but the engine has not yet
// replayed. The next operation that parks, or Flush, brings it up to
// date; under ExecModeSerial it is always current.
func (t *Thread) Now() cycles.Time { return t.clock }

// Engine returns the engine the thread runs on.
func (t *Thread) Engine() *Engine { return t.eng }

// InCriticalSection reports whether the thread currently executes at least
// one critical section.
func (t *Thread) InCriticalSection() bool { return len(t.Sections) > 0 }

// TLBStats returns the thread's dTLB hit and miss counts. Both execution
// paths — scalar submits and batch replay — accumulate them identically,
// so the split is byte-stable across ExecMode settings.
func (t *Thread) TLBStats() (hits, misses uint64) { return t.tlbHits, t.tlbMisses }

// Holds reports whether the thread currently holds m.
func (t *Thread) Holds(m *Mutex) bool { return t.held[m] }

// CurrentSection returns the innermost active critical section, or nil.
func (t *Thread) CurrentSection() *CriticalSection {
	if n := len(t.Sections); n > 0 {
		return t.Sections[n-1].Section
	}
	return nil
}

// Charge advances the thread's clock by d. Detector hooks use it only via
// their returned durations; workloads use Compute instead.
func (t *Thread) charge(d cycles.Duration) { t.clock = t.clock.Add(d) }

// --- workload-facing operations -------------------------------------------

// Compute advances the thread's clock by d cycles of local computation.
// Under batched execution it joins the thread's batch like an access and
// is charged when the batch replays: it returns nothing the body could
// observe, so it need not park, and Now does not include it until the
// next drain. ExecModeSerial parks on every Compute.
func (t *Thread) Compute(d cycles.Duration) {
	if t.eng.batching {
		ent := t.nextEntry()
		ent.tag, ent.size = entryCompute, uint64(d)
		t.entryDone()
		return
	}
	t.submit(op{kind: opCompute, cost: d})
}

// Malloc allocates size bytes at the given allocation site and returns the
// object handle.
func (t *Thread) Malloc(size uint64, site string) *alloc.Object {
	r := t.submit(op{kind: opMalloc, size: size, site: site})
	return r.obj
}

// Free releases an object allocated with Malloc.
func (t *Thread) Free(o *alloc.Object) {
	t.submit(op{kind: opFree, obj: o})
}

// Read performs a batched read of size bytes at offset off inside o. The
// site labels the access for race reports.
func (t *Thread) Read(o *alloc.Object, off, size uint64, site string) {
	t.access(o, off, size, mpk.Read, site)
}

// Write performs a batched write of size bytes at offset off inside o.
func (t *Thread) Write(o *alloc.Object, off, size uint64, site string) {
	t.access(o, off, size, mpk.Write, site)
}

func (t *Thread) access(o *alloc.Object, off, size uint64, kind mpk.AccessKind, site string) {
	if o == nil {
		panic(fmt.Sprintf("sim: thread %d: access through nil object at %s", t.id, site))
	}
	if size == 0 {
		size = 1
	}
	if off+size > o.Padded {
		panic(fmt.Sprintf("sim: thread %d: access [%d,%d) out of bounds of %s at %s",
			t.id, off, off+size, o, site))
	}
	if t.eng.batching {
		ent := t.nextEntry()
		ent.tag, ent.obj, ent.off, ent.size, ent.kind, ent.site = entryAccess, o, off, size, kind, site
		t.entryDone()
		return
	}
	t.submit(op{kind: opAccess, obj: o, off: off, size: size, access: kind, site: site})
}

// Sweep performs one access of bytesEach bytes at offset 0 of every object
// in objs, as a single engine operation. It models a loop over a pool of
// objects (particles, connections, molecules): under a compact allocator
// consecutive objects share pages, while under unique-page allocation
// every object lives on its own page — which is exactly the dTLB-pressure
// difference §7.2 describes. The objs slice must not be mutated until the
// operation has executed — under batched execution that is the next sync
// point or Flush, not the Sweep call itself.
func (t *Thread) Sweep(objs []*alloc.Object, bytesEach uint64, kind mpk.AccessKind, site string) {
	if len(objs) == 0 {
		return
	}
	if bytesEach == 0 {
		bytesEach = 8
	}
	if t.eng.batching {
		ent := t.nextEntry()
		ent.tag, ent.objs, ent.size, ent.kind, ent.site = entrySweep, objs, bytesEach, kind, site
		t.entryDone()
		return
	}
	t.submit(op{kind: opSweep, objs: objs, size: bytesEach, access: kind, site: site})
}

// Lock acquires m, entering the critical section identified by site. Kard
// differentiates critical sections by the virtual address of the lock call
// site (§5.3); site is that label.
func (t *Thread) Lock(m *Mutex, site string) {
	t.submit(op{kind: opLock, mutex: m, site: site})
}

// TryLock attempts to acquire m without blocking (pthread_mutex_trylock):
// it reports whether the lock was taken, entering the critical section at
// site on success.
func (t *Thread) TryLock(m *Mutex, site string) bool {
	r := t.submit(op{kind: opTryLock, mutex: m, site: site})
	return r.ok
}

// Unlock releases m, exiting its critical section.
func (t *Thread) Unlock(m *Mutex) {
	t.submit(op{kind: opUnlock, mutex: m})
}

// Barrier waits at b until all participants arrive.
func (t *Thread) Barrier(b *BarrierObj) {
	t.submit(op{kind: opBarrier, barrier: b})
}

// Go spawns a new simulated thread running body and returns its handle.
func (t *Thread) Go(name string, body func(*Thread)) *Thread {
	r := t.submit(op{kind: opSpawn, site: name, body: body})
	return r.thread
}

// Join blocks until other exits, establishing the usual happens-before
// edge from its final operation.
func (t *Thread) Join(other *Thread) {
	if other == t {
		panic("sim: thread joining itself")
	}
	t.submit(op{kind: opJoin, thread: other})
}

// StoreBytes writes b at offset off of o through the simulated memory,
// performing a checked Write access first. Examples use it to move real
// data.
func (t *Thread) StoreBytes(o *alloc.Object, off uint64, b []byte) {
	t.Write(o, off, uint64(len(b)), "store")
	// The copy below translates through the dTLB directly; flush so the
	// buffered Write's translations land first, in scalar order.
	t.Flush()
	if err := t.eng.space.Store(o.Base+mem.Addr(off), b); err != nil {
		panic(err)
	}
}

// LoadBytes reads len(b) bytes at offset off of o.
func (t *Thread) LoadBytes(o *alloc.Object, off uint64, b []byte) {
	t.Read(o, off, uint64(len(b)), "load")
	t.Flush()
	if err := t.eng.space.Load(o.Base+mem.Addr(off), b); err != nil {
		panic(err)
	}
}

// submit parks the thread with its next operation and returns once the
// engine has executed it — and, under batched execution, once any
// buffered entries queued before it have replayed. The operation count
// is charged engine-side at activation (Engine.activate), not here, so
// batched entries count at the moment they become pick-eligible, exactly
// as their scalar submissions would.
func (t *Thread) submit(o op) opResult {
	if t.done {
		panic(fmt.Sprintf("sim: operation on finished thread %d", t.id))
	}
	r := t.park(o)
	if r.err != nil {
		if r.err == errAborted {
			panic(errAborted) // engine teardown: unwind without recording
		}
		// Wrapping preserves the error chain through the goroutine
		// recover, so Run reports a structured error instead of a
		// panic with a stack. Bodies may still recover it to handle
		// failed operations themselves.
		panic(&opError{err: r.err})
	}
	return r
}

// park queues o and runs the scheduler on this goroutine until the
// thread's result comes up (Engine.schedule); errors come back as values.
// errAborted means the run was torn down — for a thread the watchdog left
// running, possibly before it parked — and the thread holds no baton.
func (t *Thread) park(o op) opResult {
	e := t.eng
	e.lock.Lock()
	if e.finished {
		e.lock.Unlock()
		return opResult{err: errAborted}
	}
	t.scheduling = true
	t.pending = o
	e.arrive(t)
	r := e.schedule(t)
	t.scheduling = false
	return r
}
