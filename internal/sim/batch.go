package sim

// Batched, sharded access execution (DESIGN.md §12).
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
// ExecModeSerial by construction.
//
// ExecModeParallel adds reconciliation epochs on top of the replay: when
// every runnable thread is parked at a pure sync point and at least two
// hold non-empty batches, a pure admission pass proves the batches
// conflict-free (single thread per object, every page dTLB-resident,
// detector-specific EpochCheck per access). An admitted epoch commits
// clocks, per-thread TLB hits, and counters serially in deterministic
// thread order — every individual commit is order-independent under the
// admission invariants — and then fans the detector's OnAccess replay out
// across one worker goroutine per thread. Any doubt vetoes the epoch and
// the batches replay on the scalar path, so verdicts, race reports, and
// goldens cannot move.

import (
	"fmt"
	"math/bits"
	"sync"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mem"
	"kard/internal/mpk"
	"kard/internal/obs"
)

// Execution modes for Config.ExecMode.
const (
	// ExecModeParallel is the default: batched replay plus parallel
	// reconciliation epochs for conflict-free batches.
	ExecModeParallel = "parallel"
	// ExecModeSerial is the scalar path: every access parks at the
	// scheduler individually. It is the differential oracle the default
	// mode is byte-compared against.
	ExecModeSerial = "serial"
)

// DefaultBatchSize is the per-thread access buffer capacity. One
// park/resume cycle (~750 ns) amortized over 128 accesses costs
// ~6 ns/access.
const DefaultBatchSize = 128

// epochMinEntries is the smallest total number of buffered accesses worth
// an epoch admission pass; smaller drains replay on the scalar path.
const epochMinEntries = 64

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
// the run token, like any other operation submission.
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

// clearBatch resets the buffer (capacity retained) after a full replay,
// an epoch commit, or an error discard.
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
		t.resume <- opResult{err: err}
		return
	}
	if t.batchPos == len(t.batch) {
		t.clearBatch()
	}
	e.activate(t)
}

// traceDrain records a drained batch's trace instant when the batch
// starts to execute, by replay or in an epoch. Threads that resume
// together park in whatever order the Go scheduler runs them, so the
// instant is not recorded at arrival: execution order is deterministic.
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

// BatchStats reports the engine's batched-execution counters: batch
// drains, committed epochs, accesses committed inside epochs, and vetoed
// epoch attempts. Tests and tools use it; the same counters flush to obs
// when Config.Metrics is set.
func (e *Engine) BatchStats() (drains, epochs, epochAccesses, vetoes uint64) {
	return e.batchDrains, e.epochCount, e.epochAccesses, e.epochVetoes
}

// --- parallel reconciliation epochs ---------------------------------------

// tryEpoch attempts one reconciliation epoch. Preconditions checked here
// (cheap, every scheduling round): every parked thread's final operation
// is a pure sync point (drain or compute — anything that can mutate
// detector, allocator, or page-table state between batched accesses
// vetoes, because the scalar interleaving could order it between them),
// at least two threads hold un-replayed batches, and the total is worth
// the admission pass. epochHold suppresses re-admission of a vetoed
// configuration until a new arrival changes it, keeping the scalar replay
// of a vetoed batch O(n) instead of O(n²).
func (e *Engine) tryEpoch() {
	if e.epochHold || len(e.parked) < 2 {
		return
	}
	total, holders := 0, 0
	for _, t := range e.parked {
		switch t.pending.kind {
		case opDrain, opCompute:
		default:
			return
		}
		if n := len(t.batch) - t.batchPos; n > 0 {
			holders++
			total += n
		}
	}
	if holders < 2 || total < epochMinEntries {
		return
	}
	if !e.epochAdmit() {
		e.epochVetoes++
		e.epochHold = true
		e.tr.InstantArg("epoch.veto", "sim", -1, "entries", "", int64(total))
		return
	}
	e.runEpoch()
}

// epochAdmit is the pure admission pass: it proves, without mutating
// anything, that every buffered access of every parked thread can commit
// inside the epoch. Veto conditions: an object touched by two epoch
// threads, a freed object, a page not dTLB-resident (its translation
// would walk, fault, or evict — all order-sensitive), or a detector
// EpochCheck refusal.
func (e *Engine) epochAdmit() bool {
	if e.epochFoot == nil {
		e.epochFoot = make(map[*alloc.Object]*Thread, 64)
	} else {
		clear(e.epochFoot)
	}
	for _, t := range e.parked {
		for i := t.batchPos; i < len(t.batch); i++ {
			ent := &t.batch[i]
			if ent.objs != nil {
				for _, obj := range ent.objs {
					if !e.admitAccess(t, obj, 0, sweepSize(ent.size, obj), ent.kind, ent.site) {
						return false
					}
				}
			} else if !e.admitAccess(t, ent.obj, ent.off, ent.size, ent.kind, ent.site) {
				return false
			}
		}
	}
	return true
}

// sweepSize is the per-object access size of a sweep entry, clamped to
// the object like executeSweep does.
func sweepSize(size uint64, obj *alloc.Object) uint64 {
	if size > obj.Padded {
		return obj.Padded
	}
	return size
}

func (e *Engine) admitAccess(t *Thread, obj *alloc.Object, off, size uint64, kind mpk.AccessKind, site string) bool {
	if obj.Freed() {
		return false
	}
	if prev, ok := e.epochFoot[obj]; ok {
		if prev != t {
			return false
		}
	} else {
		e.epochFoot[obj] = t
	}
	addr := obj.Base + mem.Addr(off)
	first, last := mem.PageRange(addr, size)
	for p := first; p <= last; p++ {
		if !e.space.TLBResidentPage(p) {
			return false
		}
	}
	t.epochScratch = Access{Thread: t, Object: obj, Addr: addr, Size: size, Kind: kind, Site: site}
	return e.epochDet.EpochCheck(&t.epochScratch)
}

// runEpoch commits an admitted epoch. Phase A runs on the scheduler
// goroutine in thread-creation order: per access, the exact dTLB hit
// commits Translate would have made (all hits — admission proved
// residency, and all-hit CLOCK commits are order-independent: used bits
// are idempotent, the hand does not move, the hits counter is a sum, and
// the MRU hint never changes a hit/miss outcome), the base access charge,
// and the detector cost from EpochCost, which by contract is clock-free
// and equal to what OnAccess returns. Phase B fans the OnAccess replay
// out across one goroutine per thread — per-thread program order,
// threads concurrent — and verifies each returned cost against the
// pre-charged prediction, converting any divergence into a FailRun
// instead of a silently wrong clock.
func (e *Engine) runEpoch() {
	e.epochThreads = e.epochThreads[:0]
	inEpoch := func(t *Thread) bool {
		for _, p := range e.parked {
			if p == t {
				return t.batchPos < len(t.batch)
			}
		}
		return false
	}
	for _, t := range e.threads {
		if inEpoch(t) {
			e.epochThreads = append(e.epochThreads, t)
			if t.batchPos == 0 {
				e.traceDrain(t)
			}
		}
	}
	// Epoch spans record on the scheduler goroutine with logical
	// timestamps ("just after the previous event"): per-thread virtual
	// clocks inside an epoch are incomparable, and the span brackets both
	// phases, including the concurrent Phase B.
	e.tr.Begin("epoch", "sim", -1)
	e.tr.Begin("epoch.commit", "sim", -1)

	// Phase A: serial, deterministic commits of translations and clocks.
	for _, t := range e.epochThreads {
		for i := t.batchPos; i < len(t.batch); i++ {
			ent := &t.batch[i]
			if ent.objs != nil {
				for _, obj := range ent.objs {
					e.commitClocks(t, obj, 0, sweepSize(ent.size, obj), ent.kind, ent.site)
				}
			} else {
				e.commitClocks(t, ent.obj, ent.off, ent.size, ent.kind, ent.site)
			}
		}
	}

	e.tr.End("epoch.commit", "sim", -1)
	e.tr.Begin("epoch.replay", "sim", -1)

	// Phase B: concurrent detector replay, one worker per thread.
	var wg sync.WaitGroup
	for _, t := range e.epochThreads {
		wg.Add(1)
		go func(t *Thread) {
			defer wg.Done()
			e.commitDetector(t)
		}(t)
	}
	wg.Wait()
	e.tr.EndArg("epoch.replay", "sim", -1, "threads", int64(len(e.epochThreads)))

	var committed uint64
	for _, t := range e.epochThreads {
		n := uint64(len(t.batch) - t.batchPos)
		committed += n
		e.epochAccesses += n
		// Operation counting, matching the scalar replay exactly: the
		// head entry was already counted when the thread arrived (or when
		// the previous entry re-activated it), so the epoch adds the
		// remaining n-1 — plus the final operation itself when it is a
		// real one (compute), which the replay path would have counted at
		// its activation; a drain park is free.
		t.opCount += n - 1
		if t.pending.kind != opDrain {
			t.opCount++
		}
		t.clearBatch()
	}
	e.epochCount++
	e.tr.EndArg("epoch", "sim", -1, "accesses", int64(committed))
}

// commitClocks performs the phase-A commit of one access: per-page dTLB
// hit, base access charge, counters, and the detector's predicted cost.
func (e *Engine) commitClocks(t *Thread, obj *alloc.Object, off, size uint64, kind mpk.AccessKind, site string) {
	addr := obj.Base + mem.Addr(off)
	first, last := mem.PageRange(addr, size)
	for p := first; p <= last; p++ {
		if e.space.TLBHit(p) == nil {
			e.FailRun(fmt.Errorf("sim: epoch invariant violated: page %s of %s no longer dTLB-resident at commit", p.Base(), obj))
			return
		}
		t.tlbHits++
	}
	t.epochScratch = Access{Thread: t, Object: obj, Addr: addr, Size: size, Kind: kind, Site: site}
	units := t.epochScratch.Units()
	t.charge(cycles.Duration(units) * cycles.Access)
	t.accessUnits += units
	e.accessUnits += units
	if e.cfg.Metrics {
		obs.Std.SimAccessUnits.Add(units)
	}
	t.charge(e.epochDet.EpochCost(&t.epochScratch))
}

// commitDetector replays one thread's batched accesses through OnAccess,
// in program order, on a worker goroutine. It reuses the thread's own
// epoch scratch record — the batch-storage variant of the no-retention
// contract the Detector interface documents.
func (e *Engine) commitDetector(t *Thread) {
	for i := t.batchPos; i < len(t.batch); i++ {
		ent := &t.batch[i]
		if ent.objs != nil {
			for _, obj := range ent.objs {
				e.commitOne(t, obj, 0, sweepSize(ent.size, obj), ent.kind, ent.site)
			}
		} else {
			e.commitOne(t, ent.obj, ent.off, ent.size, ent.kind, ent.site)
		}
	}
}

func (e *Engine) commitOne(t *Thread, obj *alloc.Object, off, size uint64, kind mpk.AccessKind, site string) {
	t.epochScratch = Access{Thread: t, Object: obj, Addr: obj.Base + mem.Addr(off), Size: size, Kind: kind, Site: site}
	want := e.epochDet.EpochCost(&t.epochScratch)
	if got := e.detector.OnAccess(&t.epochScratch); got != want {
		e.FailRun(fmt.Errorf("sim: epoch cost diverged for %s at %s: OnAccess charged %d, EpochCost predicted %d",
			obj, site, got, want))
	}
}
