package sim

// Batched access execution (DESIGN.md §12).
//
// Under ExecModeParallel (the default), Read/Write/Sweep append to a
// fixed-size per-thread batch buffer instead of parking at the scheduler
// per access. The buffer drains when the thread parks for any other
// operation (a sync point: lock, barrier, malloc, compute, exit, ...),
// when it fills (the execution quantum), or on an explicit Thread.Flush.
// A drained batch is not executed contiguously: its entries become the
// thread's queued operation heads, and the scheduler's pick loop executes
// them one at a time under the exact (clock, seed-keyed prio) order the
// scalar engine would have used — so the interleaving, every translation,
// every charge, and every OnAccess call are byte-identical to
// ExecModeSerial by construction. Every entry executes on the goroutine
// holding the baton, like every other operation.

import (
	"math/bits"

	"kard/internal/alloc"
	"kard/internal/mpk"
)

// Execution modes for Config.ExecMode.
const (
	// ExecModeParallel is the default: per-thread access batches
	// replayed through the pick loop. The name is historical — the mode
	// once also replayed conflict-free batches on concurrent goroutines
	// — and is kept because configurations and tools name it.
	ExecModeParallel = "parallel"
	// ExecModeSerial is the scalar path: every access parks at the
	// scheduler individually. It is the differential oracle the default
	// mode is byte-compared against.
	ExecModeSerial = "serial"
)

// DefaultBatchSize is the per-thread access buffer capacity. One park
// (~80 ns when the parking thread resumes itself, a few hundred more when
// another thread takes the baton) amortized over 128 accesses costs
// 1–3 ns/access.
const DefaultBatchSize = 128

// batchEntry is one buffered access operation: a Read/Write (obj) or a
// Sweep (objs). Entries are value-typed slots in the thread's fixed
// buffer, so buffering allocates nothing after the buffer exists.
type batchEntry struct {
	obj  *alloc.Object
	objs []*alloc.Object // non-nil for a sweep entry
	off  uint64
	size uint64
	kind mpk.AccessKind
	site string
}

// bufferAccess appends one access to the thread's batch, draining first
// if the buffer is full. Called on the thread's goroutine while it holds
// the baton, like any other operation submission.
func (t *Thread) bufferAccess(ent batchEntry) {
	if t.batch == nil {
		t.batch = make([]batchEntry, 0, DefaultBatchSize)
	}
	t.batch = append(t.batch, ent)
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

// Flush drains the thread's buffered accesses, if any. Batched execution
// drains automatically at every synchronization point and full buffer;
// Flush exists for code that reads the simulated memory or detector state
// directly (StoreBytes/LoadBytes use it) and for tests. Under
// ExecModeSerial it is a no-op.
func (t *Thread) Flush() {
	if len(t.batch) == 0 {
		return
	}
	t.drainBatch()
}

// BufferedAccesses returns the number of accesses currently buffered and
// not yet executed. Tests use it; workloads should not.
func (t *Thread) BufferedAccesses() int { return len(t.batch) - t.batchPos }

// clearBatch resets the buffer (capacity retained) after a full replay or
// an error discard.
func (t *Thread) clearBatch() {
	t.batch = t.batch[:0]
	t.batchPos = 0
}

// executeBatchEntry executes the thread's next buffered access on the
// scheduler and re-parks the thread, without resuming its goroutine: the
// thread stays parked until its final (non-access) operation runs. An
// access error wakes the thread immediately with the error and discards
// the rest of the batch and the final operation — exactly the state the
// scalar engine would be in, where the thread body would have panicked at
// this access and never submitted the rest.
func (e *Engine) executeBatchEntry(t *Thread) {
	if t.batchPos == 0 {
		e.traceDrain(t)
	}
	ent := &t.batch[t.batchPos]
	t.batchPos++
	var err error
	if ent.objs != nil {
		err = e.sweepCore(t, ent.objs, ent.size, ent.kind, ent.site)
	} else {
		err = e.accessCore(t, ent.obj, ent.off, ent.size, ent.kind, ent.site)
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

// BatchDrains reports how many access batches the run has drained so
// far; ExecModeSerial never drains. Tests and tools use it; the same
// count flushes to obs at run teardown.
func (e *Engine) BatchDrains() uint64 { return e.batchDrains }
