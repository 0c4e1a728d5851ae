package sim

// Batched execution (DESIGN.md §12).
//
// Under ExecModeParallel (the default), Read/Write/Sweep and Compute
// append to a fixed-size per-thread batch buffer instead of parking at
// the scheduler one by one. A thread parks only for an operation whose
// result, or whose blocking, its body observes; none of these four
// returns anything. The buffer drains when the thread parks for any
// other operation (a sync point: lock, unlock, barrier, malloc, free,
// exit, ...), when it fills (the execution quantum), or on an explicit
// Thread.Flush. A drained batch is not executed contiguously: its
// entries become the thread's queued operation heads, and the
// scheduler's pick loop executes them one at a time under the exact
// (clock, seed-keyed prio) order the scalar engine would have used — so
// the interleaving, every translation, every charge, and every OnAccess
// call are byte-identical to ExecModeSerial by construction. Every entry
// executes on the goroutine holding the baton, like every other
// operation.

import (
	"math/bits"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mpk"
)

// Execution modes for Config.ExecMode.
const (
	// ExecModeParallel is the default: per-thread access batches
	// replayed through the pick loop. The name is historical — the mode
	// once also replayed conflict-free batches on concurrent goroutines
	// — and is kept because configurations and tools name it.
	ExecModeParallel = "parallel"
	// ExecModeSerial is the scalar path: every access and every
	// compute parks at the scheduler individually. It is the
	// differential oracle the default mode is byte-compared against.
	ExecModeSerial = "serial"
)

// DefaultBatchSize is the per-thread batch capacity. One park (~80 ns
// when the parking thread resumes itself, a few hundred more when another
// thread takes the baton) amortized over 128 entries costs 1–3 ns/entry.
const DefaultBatchSize = 128

// entryKind tags what a batch entry replays as.
type entryKind uint8

const (
	entryAccess  entryKind = iota // Read/Write of obj
	entrySweep                    // Sweep over objs
	entryCompute                  // Compute; size holds the cycle cost
)

// batchEntry is one buffered operation: a Read/Write (obj), a Sweep
// (objs) or a Compute (its cost in size). Entries are value-typed slots
// in the thread's fixed buffer, so buffering allocates nothing after the
// buffer exists. The tag sits in kind's padding, keeping the entry at 72
// bytes; callers fill a slot in place (nextEntry) rather than copying an
// entry in, as larger copies show up as runtime.duffcopy in profiles.
type batchEntry struct {
	obj  *alloc.Object
	objs []*alloc.Object
	off  uint64
	size uint64
	kind mpk.AccessKind
	tag  entryKind
	site string
}

// nextEntry appends a slot to the thread's batch and returns it for the
// caller to fill; entryDone must follow. Fields the entry's tag does not
// read may hold a previous entry's values. Called on the thread's
// goroutine while it holds the baton, like any other operation
// submission.
func (t *Thread) nextEntry() *batchEntry {
	if t.batch == nil {
		t.batch = make([]batchEntry, 0, DefaultBatchSize)
	}
	n := len(t.batch)
	t.batch = t.batch[:n+1]
	return &t.batch[n]
}

// entryDone drains the batch if the slot just filled was its last.
func (t *Thread) entryDone() {
	if len(t.batch) == cap(t.batch) {
		t.drainBatch()
	}
}

// drainBatch parks the thread until the engine has replayed every
// buffered access. The entries execute under scheduler order, not
// contiguously; see the package comment above.
func (t *Thread) drainBatch() {
	t.submit(op{kind: opDrain})
}

// Flush drains the thread's buffered accesses and computes, if any, so
// that Now and the simulated memory reflect them. Batched execution
// drains automatically at every synchronization point and full buffer;
// Flush exists for code that reads the clock, the simulated memory or
// detector state directly (StoreBytes/LoadBytes use it) and for tests.
// Under ExecModeSerial it is a no-op.
func (t *Thread) Flush() {
	if len(t.batch) == 0 {
		return
	}
	t.drainBatch()
}

// BufferedAccesses returns the number of batch entries — accesses,
// sweeps and computes — currently buffered and not yet executed. Tests
// use it; workloads should not.
func (t *Thread) BufferedAccesses() int { return len(t.batch) - t.batchPos }

// clearBatch resets the buffer (capacity retained) after a full replay or
// an error discard.
func (t *Thread) clearBatch() {
	t.batch = t.batch[:0]
	t.batchPos = 0
}

// executeBatchEntry executes the thread's next buffered entry on the
// scheduler and re-parks the thread, without resuming its goroutine: the
// thread stays parked until its final (non-batched) operation runs. A
// compute entry charges its cost, as opCompute does. An access error
// wakes the thread immediately with the error and discards the rest of
// the batch and the final operation — exactly the state the scalar
// engine would be in, where the thread body would have panicked at this
// access and never submitted the rest.
func (e *Engine) executeBatchEntry(t *Thread) {
	if t.batchPos == 0 {
		e.traceDrain(t)
	}
	ent := &t.batch[t.batchPos]
	t.batchPos++
	var err error
	switch ent.tag {
	case entryAccess:
		err = e.accessCore(t, ent.obj, ent.off, ent.size, ent.kind, ent.site)
	case entrySweep:
		err = e.sweepCore(t, ent.objs, ent.size, ent.kind, ent.site)
	case entryCompute:
		t.charge(cycles.Duration(ent.size))
	}
	if err != nil {
		t.clearBatch()
		e.wake(t, opResult{err: err})
		return
	}
	if t.batchPos == len(t.batch) {
		t.clearBatch()
	}
	e.activate(t)
}

// traceDrain records a drained batch's trace instant when its first
// entry executes, not when the thread parks, so drain instants appear in
// execution order.
func (e *Engine) traceDrain(t *Thread) {
	e.tr.InstantArg2("drain", "sim", int64(t.clock), "depth", "", int64(len(t.batch)), "thread", int64(t.id))
}

// noteDrain records one batch drain for the run's telemetry: a histogram
// of fill depths in power-of-two buckets, flushed to obs at teardown.
func (e *Engine) noteDrain(depth int) {
	e.batchDrains++
	b := bits.Len(uint(depth)) // depth 1 → bucket 1, 128 → bucket 8
	if b >= len(e.batchDepth) {
		b = len(e.batchDepth) - 1
	}
	e.batchDepth[b]++
}

// BatchDrains reports how many batches the run has drained so
// far; ExecModeSerial never drains. Tests and tools use it; the same
// count flushes to obs at run teardown.
func (e *Engine) BatchDrains() uint64 { return e.batchDrains }
