package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/faultinject"
	"kard/internal/mem"
	"kard/internal/mpk"
	"kard/internal/obs"
	"kard/internal/trace"
)

// Config parameterizes one simulated execution.
type Config struct {
	// Seed keys the scheduler's tie-breaking, so different seeds explore
	// different interleavings deterministically.
	Seed int64
	// TLBEntries sizes the dTLB model (0 = default).
	TLBEntries int
	// TLBModel selects the dTLB replacement model: "" or "clock" is the
	// flat CLOCK model whose hit/miss sequences pin the golden outputs;
	// "setassoc" is the two-level set-associative geometry of the paper's
	// evaluation machine (64-entry 8-way L1 + 1536-entry 12-way STLB;
	// TLBEntries is ignored). New panics on any other value.
	TLBModel string
	// UniquePageAllocator selects Kard's consolidated unique-page
	// allocator instead of the compact native one.
	UniquePageAllocator bool
	// AllocRecycle enables virtual-page recycling in the unique-page
	// allocator (ablation; off in the paper).
	AllocRecycle bool
	// Faults is the deterministic fault-injection plan threaded through
	// the run's syscall-like boundaries. The zero plan injects nothing.
	Faults faultinject.Plan
	// Watchdog bounds the run's wall-clock time (0 = unbounded). An
	// exceeded deadline aborts the run with an error wrapping
	// ErrWatchdog and a per-thread state dump.
	Watchdog time.Duration
	// Deadline is an absolute wall-clock deadline propagated from job
	// submission (zero = none). When it is nearer than Watchdog it
	// becomes the effective bound; a run whose deadline already passed
	// fails immediately with ErrDeadline instead of starting.
	Deadline time.Time
	// MaxFrames bounds the simulated physical frame pool (0 =
	// unlimited); exhaustion surfaces as mem.ErrFrameExhausted.
	MaxFrames uint64
	// Metrics publishes per-access counters to the process-wide obs
	// registry live (one atomic add per access) instead of only at run
	// teardown. The detection service turns it on so a /metrics scrape
	// sees in-flight work; batch evaluation leaves it off and loses
	// nothing — the same totals are flushed when the run ends. The live
	// path stays allocation-free (benchgate's AccessSteadyStateMetrics
	// run enforces it).
	Metrics bool
	// ExecMode selects the access execution path (DESIGN.md §12):
	// ExecModeParallel ("" and the default) buffers accesses per thread
	// and replays them through the scheduler; ExecModeSerial parks every
	// access individually — the differential oracle. Both produce
	// byte-identical statistics, verdicts, and race reports. New panics
	// on any other value.
	ExecMode string
	// Trace, when non-nil, receives structured span events from the run:
	// the run span, sync-operation and malloc/free instants, batch-drain
	// instants, races, watchdog firings, and fault-injection retries.
	// Events record at operation-boundary rate, never per access, and
	// all timestamps are virtual clocks — a traced run is as
	// deterministic as an untraced one, and a nil Trace costs one
	// predictable branch per boundary (benchgate's
	// AccessSteadyStateTraced run pins the traced cost).
	Trace *trace.Track
}

// Engine is the discrete-event execution engine. Create one per run with
// New, register globals, then call Run.
type Engine struct {
	cfg      Config
	space    *mem.AddressSpace
	objects  *alloc.ObjectTable
	alloc    alloc.Allocator
	detector Detector

	mu          sync.Mutex // guards mutex/barrier creation from workload code
	mutexes     []*Mutex
	rwmutexes   []*RWMutex
	conds       []*Cond
	barriers    []*BarrierObj
	sections    map[string]*CriticalSection
	sectionList []*CriticalSection

	parked  []*Thread
	threads []*Thread

	// ready queues executed operations whose threads have not resumed, in
	// wake order (DESIGN.md §12). The baton holder runs engine code under
	// lock, as does Run's teardown; the holder sets finished (under lock)
	// and closes haltC when it stops the run. abort is Run's watchdog
	// signal.
	ready []wakeup
	lock  sync.Mutex
	abort atomic.Bool
	haltC chan struct{}

	startup cycles.Time

	// Section concurrency tracking (Table 5).
	activeSections    map[*CriticalSection]int
	maxConcurrent     int
	totalCSEntries    uint64
	accessUnits       uint64
	tlbMissUnits      uint64
	globalsRegistered int
	running           bool
	finished          bool
	obsFlushed        bool

	// panics records unrecovered panics from thread bodies (guarded by
	// mu: thread goroutines append concurrently). Run reports them as
	// errors instead of letting one diverging workload kill the process.
	panics []string

	// runErrs records structured run-level errors — failed setup
	// allocations, operation errors a thread could not continue past,
	// detector invariant violations — reported by Run without the
	// panic-to-error net (guarded by mu).
	runErrs []error

	// inj is the run's fault injector, nil without a Faults plan. It is
	// also attached to the address space, where mem/mpk/alloc/core
	// consult it.
	inj *faultinject.Injector

	// scratch is the reusable Access record for the scalar and
	// batch-replay access paths. Passing its address to OnAccess keeps
	// the per-access path allocation-free (a local would escape to the
	// heap through the interface call); detectors must not retain the
	// pointer past the OnAccess call, which the Detector interface
	// documents. Those paths run only on the goroutine holding the baton,
	// so one record per engine is safe.
	scratch Access

	// Batched execution (DESIGN.md §12, internal/sim/batch.go):
	// Config.ExecMode is not ExecModeSerial.
	batching bool

	// Per-run batch telemetry, flushed to obs at teardown.
	batchDrains uint64
	batchDepth  [10]uint64 // power-of-two drain-depth buckets

	// tr is the structured trace track (Config.Trace; nil = off). All
	// events record on the goroutine holding the baton at boundary rate.
	tr *trace.Track

	// syncRing is the fixed ring of recent synchronization edges (lock,
	// unlock, barrier, spawn, join, exit) feeding race provenance
	// (provenance.go). Recording is a value store into a fixed array —
	// allocation-free — and happens only at sync operations, never on the
	// access path. syncCount is the total recorded; the ring index is
	// syncCount % syncRingSize.
	syncRing  [syncRingSize]SyncEdge
	syncCount uint64
}

// New creates an engine with the given configuration and detector. The
// detector may be nil, meaning Baseline.
func New(cfg Config, det Detector) *Engine {
	if det == nil {
		det = NewBaseline()
	}
	var as *mem.AddressSpace
	switch cfg.TLBModel {
	case "", "clock":
		as = mem.NewAddressSpace(cfg.TLBEntries)
	case "setassoc":
		as = mem.NewAddressSpaceWithTLB(mem.NewSetAssocTLB())
	default:
		panic(fmt.Sprintf("sim: unknown TLBModel %q (want \"\", \"clock\", or \"setassoc\")", cfg.TLBModel))
	}
	tbl := alloc.NewObjectTable(as)
	e := &Engine{
		cfg:            cfg,
		space:          as,
		objects:        tbl,
		detector:       det,
		haltC:          make(chan struct{}),
		sections:       make(map[string]*CriticalSection),
		activeSections: make(map[*CriticalSection]int),
	}
	switch cfg.ExecMode {
	case "", ExecModeParallel, ExecModeSerial:
	default:
		panic(fmt.Sprintf("sim: unknown ExecMode %q (want %q or %q)",
			cfg.ExecMode, ExecModeParallel, ExecModeSerial))
	}
	e.batching = cfg.ExecMode != ExecModeSerial
	e.tr = cfg.Trace
	if !cfg.Faults.Empty() {
		e.inj = faultinject.New(cfg.Seed, cfg.Faults)
		as.SetInjector(e.inj)
	}
	if cfg.MaxFrames > 0 {
		as.SetFrameLimit(cfg.MaxFrames)
	}
	if cfg.UniquePageAllocator {
		u := alloc.NewUniquePage(as, tbl)
		u.Recycle = cfg.AllocRecycle
		e.alloc = u
		e.startup = e.startup.Add(cycles.MemfdCreate)
	} else {
		e.alloc = alloc.NewNative(as, tbl)
	}
	det.Setup(e)
	return e
}

// Space returns the simulated address space.
func (e *Engine) Space() *mem.AddressSpace { return e.space }

// Objects returns the object table.
func (e *Engine) Objects() *alloc.ObjectTable { return e.objects }

// Allocator returns the active allocator.
func (e *Engine) Allocator() alloc.Allocator { return e.alloc }

// Detector returns the active detector.
func (e *Engine) Detector() Detector { return e.detector }

// Threads returns all threads created so far (including exited ones), in
// creation order. Detectors use it to inspect which threads currently
// execute critical sections.
func (e *Engine) Threads() []*Thread { return e.threads }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// ExecMode returns the resolved execution mode the engine runs under:
// Config.ExecMode after defaulting.
//
// Deprecated: only the perfbench module still reads it. Config().ExecMode
// holds the configured value, with "" meaning the default.
func (e *Engine) ExecMode() string {
	if e.batching {
		return ExecModeParallel
	}
	return ExecModeSerial
}

// Global registers a global object before the run starts. Kard aggregates
// global metadata during compilation and registers it when the program
// starts (§5.3); the cost is charged to startup.
//
// Transient allocation faults are retried with backoff charged to
// startup. A persistent failure records a run error and returns nil: Run
// reports it before executing any thread, so callers registering several
// globals need not check each one.
func (e *Engine) Global(size uint64, name string) *alloc.Object {
	if e.running || e.finished {
		panic("sim: Global must be called before Run")
	}
	o, d, err := e.alloc.Global(size, name)
	for r := 0; err != nil && faultinject.IsTransient(err) && r < allocMaxRetries; r++ {
		e.inj.NoteRetry()
		e.tr.InstantArg("fault.retry", "sim", int64(e.startup), "site", name, int64(r))
		e.startup = e.startup.Add(allocRetryBackoff << r)
		o, d, err = e.alloc.Global(size, name)
	}
	if err != nil {
		e.FailRun(fmt.Errorf("sim: registering global %q: %w", name, err))
		return nil
	}
	e.startup = e.startup.Add(d)
	e.startup = e.startup.Add(e.detector.ObjectAllocated(nil, o))
	e.globalsRegistered++
	return o
}

// FailRun records a run-level error for Run to report: a failed setup
// allocation or a detector invariant violation. Hooks whose signatures
// only return durations use it instead of panicking; the run continues
// (degraded) and the error surfaces when Run finishes — or immediately,
// for errors recorded before Run starts.
func (e *Engine) FailRun(err error) {
	obs.Flight.Recordf(obs.EvRunFail, "%v", err)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runErrs = append(e.runErrs, err)
}

// allocMaxRetries bounds retries of transient allocation faults;
// allocRetryBackoff is the simulated cost of the first retry, doubling
// per attempt.
const (
	allocMaxRetries                   = 3
	allocRetryBackoff cycles.Duration = 2000
)

// abortGrace bounds how long a watchdog teardown waits for threads that
// are running body code to park, so they can be released rather than
// leaked.
const abortGrace = 100 * time.Millisecond

// ErrWatchdog marks run failures caused by the wall-clock watchdog.
// Callers match it with errors.Is.
var ErrWatchdog = errors.New("watchdog timeout")

// ErrDeadline marks run failures caused by an expired Config.Deadline —
// before the run started, or mid-run when the deadline was the binding
// wall-clock bound (such errors also match ErrWatchdog). Callers match
// it with errors.Is.
var ErrDeadline = errors.New("deadline exceeded")

// Run executes body as the main thread and drives the simulation until
// every thread exits. It returns the run statistics, or an error if the
// simulated program deadlocked or a thread body panicked without
// recovering (the panic is captured and reported as the error, so one
// diverging workload cannot take down a whole evaluation process).
func (e *Engine) Run(body func(*Thread)) (*Stats, error) {
	if e.finished {
		return nil, fmt.Errorf("sim: engine already ran")
	}
	// Telemetry flushes exactly once per run, whatever the exit path —
	// Finish() only runs on success, which is not enough for gauges that
	// must be retracted on watchdog and failure teardowns too.
	outcome := "failed"
	defer func() { e.finishObs(outcome) }()
	// The run span opens before any early return so finishObs (which
	// closes it) always sees a matching begin.
	e.tr.Begin("run", "sim", int64(e.startup))
	if err := e.takeRunErrs(); err != nil {
		// Setup (Global registration) already failed: report it before
		// executing any thread code.
		e.finished = true
		return nil, fmt.Errorf("sim: setup failed: %w", err)
	}
	bound, deadlineBound := e.cfg.Watchdog, false
	if !e.cfg.Deadline.IsZero() {
		rem := time.Until(e.cfg.Deadline)
		if rem <= 0 {
			e.finished = true
			outcome = "deadline"
			return nil, fmt.Errorf("sim: %w: job deadline %v passed before the run started",
				ErrDeadline, e.cfg.Deadline.UTC().Format(time.RFC3339))
		}
		if bound == 0 || rem < bound {
			bound, deadlineBound = rem, true
		}
	}
	e.running = true
	var watchC <-chan time.Time
	if bound > 0 {
		timer := time.NewTimer(bound)
		defer timer.Stop()
		watchC = timer.C
	}
	e.startThread("main", e.startup, body).resume <- opResult{} // main takes the baton

	select {
	case <-e.haltC:
	case <-watchC:
		// The holder halts at its next scheduling step, if it gets one.
		e.abort.Store(true)
		grace := time.NewTimer(abortGrace)
		select {
		case <-e.haltC:
		case <-grace.C:
		}
		grace.Stop()
	}
	// Taking the lock waits out a holder still inside engine code; once
	// finished is set, a thread that parks later unwinds with errAborted.
	e.lock.Lock()
	defer e.lock.Unlock()
	timedOut := !e.finished || len(e.ready)+len(e.parked) > 0
	e.running = false
	e.finished = true

	if timedOut {
		outcome = "watchdog"
		if deadlineBound {
			outcome = "deadline"
		}
		return nil, e.abortTimeout(bound, deadlineBound)
	}

	var blocked []string
	var report string
	for _, t := range e.threads {
		if !t.done {
			if report == "" {
				report = e.blockageReport() // before tearing the threads down
			}
			blocked = append(blocked, fmt.Sprintf("%s(#%d)", t.name, t.id))
			t.done = true
			t.resume <- opResult{err: errAborted} // release the goroutine
		}
	}
	e.mu.Lock()
	panics := e.panics
	e.mu.Unlock()
	if len(panics) > 0 {
		msg := strings.Join(panics, "\n---\n")
		if len(blocked) > 0 {
			msg = fmt.Sprintf("%s\n(threads %v were left blocked by the panic)", msg, blocked)
		}
		return nil, fmt.Errorf("sim: workload panic: %s", msg)
	}
	if err := e.takeRunErrs(); err != nil {
		// FailRun errors get the same flight-recorder context as
		// watchdog reports: the events leading up to the failure.
		if len(blocked) > 0 {
			return nil, fmt.Errorf("sim: run failed: %w (threads %v were left blocked)\n%s",
				err, blocked, obs.Flight.Dump(16))
		}
		return nil, fmt.Errorf("sim: run failed: %w\n%s", err, obs.Flight.Dump(16))
	}
	if len(blocked) > 0 {
		return nil, fmt.Errorf("sim: deadlock: threads %v blocked forever\n%s", blocked, report)
	}
	e.detector.Finish()
	outcome = "ok"
	return e.collectStats(), nil
}

// finishObs publishes the run's accumulated telemetry — outcome, access
// units, races, injector tallies, the address space's counters, and any
// detector-held gauges — to the process-wide obs registry. Hot-path
// signals are plain per-run fields flushed here in one batch, so the
// access/translate path never pays an atomic (live per-access publishing
// is opt-in via Config.Metrics, which makes this skip the access units it
// already published). Idempotent; Run arranges exactly one call per run
// on every exit path.
func (e *Engine) finishObs(outcome string) {
	if e.obsFlushed {
		return
	}
	e.obsFlushed = true
	m := obs.Std
	switch outcome {
	case "ok":
		m.SimRunsOK.Inc()
	case "watchdog":
		m.SimRunsWatchdog.Inc()
	case "deadline":
		m.SimRunsDeadline.Inc()
	default:
		m.SimRunsFailed.Inc()
	}
	if !e.cfg.Metrics {
		m.SimAccessUnits.Add(e.accessUnits)
	}
	m.SimBatchDrains.Add(e.batchDrains)
	for i, n := range e.batchDepth {
		if n > 0 && i > 0 {
			m.SimBatchDepth.ObserveN(float64(uint64(1)<<(i-1)), n)
		}
	}
	m.SimRaces.Add(uint64(len(e.detector.Races())))
	if e.inj != nil {
		fs := e.inj.Stats()
		m.SimFaultsInjected.Add(fs.Injected)
		m.SimFaultRetries.Add(fs.Retried)
		m.SimDegradations.Add(fs.Degraded)
	}
	e.space.FlushObs()
	if f, ok := e.detector.(interface{ FlushObs() }); ok {
		f.FlushObs()
	}
	e.tr.InstantArg("run.outcome", "sim", -1, "outcome", outcome,
		int64(len(e.detector.Races())))
	e.tr.EndArg("run", "sim", -1, "accesses", int64(e.accessUnits))
	e.tr.Flush()
}

// takeRunErrs joins and clears the recorded run errors.
func (e *Engine) takeRunErrs() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.runErrs) == 0 {
		return nil
	}
	err := errors.Join(e.runErrs...)
	e.runErrs = nil
	return err
}

// abortTimeout tears the run down after the watchdog fired: every thread
// known to be waiting (parked, ready, or in a synchronization queue) is
// released with errAborted; a thread still executing body code after
// abortGrace cannot be stopped safely and is reported as leaked — by
// construction at most one runs at a time, and it unwinds with
// errAborted if it ever reaches another operation. bound is the
// wall-clock bound that fired; deadlineBound marks it as the job
// deadline rather than the watchdog setting.
func (e *Engine) abortTimeout(bound time.Duration, deadlineBound bool) error {
	if deadlineBound {
		obs.Flight.Recordf(obs.EvWatchdog, "job deadline fired after %v wall-clock", bound)
		e.tr.InstantArg("watchdog", "sim", -1, "bound", "deadline", bound.Milliseconds())
	} else {
		obs.Flight.Recordf(obs.EvWatchdog, "watchdog fired after %v wall-clock", bound)
		e.tr.InstantArg("watchdog", "sim", -1, "bound", "watchdog", bound.Milliseconds())
	}
	// The thread-state dump carries the flight recorder's recent events:
	// what the engine was doing (faults, degradations, breaker activity)
	// right before the run wedged is exactly the triage context a
	// timeout report needs.
	dump := e.stateDump() + "\n" + obs.Flight.Dump(16)
	safe := make(map[*Thread]bool, len(e.threads))
	for _, t := range e.parked {
		safe[t] = true
	}
	for _, t := range e.queueBlocked() {
		safe[t] = true
	}
	for _, w := range e.ready { // done, too, if it waits for its exit wake
		safe[w.t] = true
	}
	var leaked []string
	for _, t := range e.threads {
		if safe[t] {
			t.done = true
			t.resume <- opResult{err: errAborted}
		} else if !t.done {
			leaked = append(leaked, fmt.Sprintf("%s(#%d)", t.name, t.id))
		}
	}
	var err error
	if deadlineBound {
		err = fmt.Errorf("sim: %w: %w: run hit the job deadline after %v wall-clock\n%s",
			ErrWatchdog, ErrDeadline, bound, dump)
	} else {
		err = fmt.Errorf("sim: %w: run exceeded %v wall-clock\n%s", ErrWatchdog, bound, dump)
	}
	if len(leaked) > 0 {
		err = fmt.Errorf("%w\n(goroutines of running threads %v were leaked)", err, leaked)
	}
	return err
}

// startThread creates a simulated thread at the given start time and
// launches its goroutine, which waits for the baton before running body.
func (e *Engine) startThread(name string, start cycles.Time, body func(*Thread)) *Thread {
	t := &Thread{
		id:    len(e.threads),
		name:  name,
		eng:   e,
		clock: start,
		held:  make(map[*Mutex]bool),
		// One slot: a sender never waits; a thread has one result due.
		resume: make(chan opResult, 1),
	}
	e.threads = append(e.threads, t)
	e.detector.ThreadStarted(t)
	go func() {
		if r := <-t.resume; r.err == errAborted {
			return // torn down before it first ran
		}
		defer func() {
			if r := recover(); r != nil {
				if t.scheduling {
					panic(r) // engine code failed holding the engine lock
				}
				if err, ok := r.(error); ok && err == errAborted {
					return // engine tore the thread down: no baton
				}
				if oe, ok := r.(*opError); ok {
					// A failed operation the body did not handle:
					// record it as a structured run error (no stack —
					// the error chain identifies the site).
					e.FailRun(fmt.Errorf("thread %s(#%d): %w", t.name, t.id, oe.err))
				} else {
					// An unrecovered panic in the thread body: record
					// it so Run can report the panic as an error.
					e.recordPanic(t, r)
				}
			}
			// Exit so the run goes on. A buffered access failing at the
			// exit drain clears the batch, so parking again exits; park
			// never panics, as errAborted would escape this recover.
			for r := t.park(op{kind: opExit}); r.err != nil && r.err != errAborted; r = t.park(op{kind: opExit}) {
				e.FailRun(fmt.Errorf("thread %s(#%d): %w", t.name, t.id, r.err))
			}
		}()
		body(t)
	}()
	return t
}

// recordPanic captures an unrecovered thread-body panic, with the stack of
// the panicking goroutine, for Run to report.
func (e *Engine) recordPanic(t *Thread, v any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.panics = append(e.panics, fmt.Sprintf("thread %s(#%d): %v\n%s", t.name, t.id, v, debug.Stack()))
}

// errAborted is delivered to threads that are still blocked when the
// engine shuts down after detecting a deadlock (or a watchdog timeout),
// so their goroutines exit instead of leaking.
var errAborted = fmt.Errorf("sim: thread aborted at engine shutdown")

// opError wraps an operation error delivered to a thread, so the
// thread-goroutine recover distinguishes failed operations (structured
// run errors, error chain preserved for errors.Is/As) from genuine
// workload panics (reported with stacks).
type opError struct{ err error }

func (e *opError) Error() string { return e.err.Error() }
func (e *opError) Unwrap() error { return e.err }

// wakeup is one executed operation whose thread has not resumed yet.
type wakeup struct {
	t *Thread
	r opResult
}

// wake queues t to resume with the result of its executed operation.
func (e *Engine) wake(t *Thread, r opResult) {
	e.ready = append(e.ready, wakeup{t, r})
}

// schedule is the pick/execute loop. It runs on the goroutine of t, which
// has just parked and holds the baton and the engine lock, and returns
// t's result, with the lock released, once t comes first in the ready
// queue. An exited thread schedules on until it hands the baton off.
// When the run stops — on abort, or with nothing ready or parked — a
// live t waits for Run's teardown to release it with errAborted.
func (e *Engine) schedule(t *Thread) opResult {
	exited := false // t's exit wake was consumed: no result will come
	for !e.abort.Load() && len(e.ready)+len(e.parked) > 0 {
		if len(e.ready) == 0 {
			if th := e.pickNext(); th.batchPos < len(th.batch) {
				e.executeBatchEntry(th)
			} else {
				e.execute(th)
			}
			continue
		}
		w := e.ready[0]
		e.ready = e.ready[:copy(e.ready, e.ready[1:])]
		if w.t != t {
			e.lock.Unlock()
			w.t.resume <- w.r // pass the baton
			if exited {
				return opResult{}
			}
			if w.r = <-t.resume; w.r.err == errAborted {
				return w.r
			}
			e.lock.Lock()
		}
		if !t.done {
			e.lock.Unlock()
			return w.r
		}
		exited = true
	}
	e.finished = true
	done := t.done // Run's teardown writes it once haltC closes
	close(e.haltC)
	e.lock.Unlock()
	if done {
		return opResult{}
	}
	return <-t.resume
}

// arrive admits a thread that parked: telemetry for a freshly drained
// batch, then activation.
func (e *Engine) arrive(t *Thread) {
	if len(t.batch) > 0 && t.batchPos == 0 {
		e.noteDrain(len(t.batch))
	}
	e.activate(t)
}

// activate makes the thread's next queued operation pick-eligible and
// charges it to the thread's operation count — batched entries count one
// by one exactly as their scalar submissions would have, and the opDrain
// park itself is free (the scalar path has no such operation). The count
// feeds the seed-keyed scheduling prio, so it must advance identically
// across execution modes.
func (e *Engine) activate(t *Thread) {
	if t.batchPos < len(t.batch) || t.pending.kind != opDrain {
		t.opCount++
	}
	e.parked = append(e.parked, t)
}

// pickNext removes and returns the parked thread with the smallest
// (clock, tie-break hash) pair.
func (e *Engine) pickNext() *Thread {
	best := 0
	bestPrio := e.prio(e.parked[0])
	for i := 1; i < len(e.parked); i++ {
		t := e.parked[i]
		switch {
		case t.clock < e.parked[best].clock:
			best, bestPrio = i, e.prio(t)
		case t.clock == e.parked[best].clock:
			if p := e.prio(t); p < bestPrio {
				best, bestPrio = i, p
			}
		}
	}
	t := e.parked[best]
	e.parked[best] = e.parked[len(e.parked)-1]
	e.parked = e.parked[:len(e.parked)-1]
	return t
}

// prio is the deterministic, seed-keyed tie-breaker: it depends only on
// the seed, the thread, and the thread's operation count, never on host
// goroutine scheduling.
func (e *Engine) prio(t *Thread) uint64 {
	return splitmix64(uint64(e.cfg.Seed)*0x9e3779b97f4a7c15 ^ uint64(t.id)<<32 ^ t.opCount)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// execute runs one parked operation and queues the threads it wakes.
func (e *Engine) execute(t *Thread) {
	o := t.pending
	switch o.kind {
	case opCompute:
		t.charge(o.cost)
		e.wake(t, opResult{})

	case opMalloc:
		obj, d, err := e.alloc.Malloc(o.size, o.site)
		// Transient allocation faults (injected OOM, mmap EAGAIN) are
		// retried with exponential backoff charged in simulated cycles,
		// as a production allocator would sleep and retry.
		for r := 0; err != nil && faultinject.IsTransient(err) && r < allocMaxRetries; r++ {
			e.inj.NoteRetry()
			e.tr.InstantArg("fault.retry", "sim", int64(t.clock), "site", o.site, int64(r))
			t.charge(allocRetryBackoff << r)
			obj, d, err = e.alloc.Malloc(o.size, o.site)
		}
		if err != nil {
			e.wake(t, opResult{err: err})
			return
		}
		t.charge(d)
		t.charge(e.detector.ObjectAllocated(t, obj))
		e.tr.InstantArg2("malloc", "sim", int64(t.clock), "object", obj.Site, int64(obj.ID), "thread", int64(t.id))
		e.wake(t, opResult{obj: obj})

	case opFree:
		t.charge(e.detector.ObjectFreed(t, o.obj))
		d, err := e.alloc.Free(o.obj)
		if err != nil {
			e.wake(t, opResult{err: err})
			return
		}
		t.charge(d)
		e.tr.InstantArg2("free", "sim", int64(t.clock), "object", o.obj.Site, int64(o.obj.ID), "thread", int64(t.id))
		e.wake(t, opResult{})

	case opAccess:
		e.executeAccess(t, o)

	case opSweep:
		e.executeSweep(t, o)

	case opDrain:
		// The batch was fully replayed before this final op became
		// pick-eligible (the pick loop executes queued entries first);
		// the park itself costs nothing.
		e.wake(t, opResult{})

	case opRLock, opRUnlock, opWLock, opWUnlock:
		e.executeRW(t, o)

	case opCondWait, opCondSignal, opCondBroadcast:
		e.executeCond(t, o)

	case opTryLock:
		m := o.mutex
		if m.holder != nil {
			t.charge(cycles.LockUncontended)
			e.wake(t, opResult{ok: false})
			return
		}
		t.clock = cycles.Max(t.clock, m.lastRelease).Add(cycles.LockUncontended)
		e.grantLock(t, m, o.site)
		e.wake(t, opResult{ok: true})

	case opLock:
		m := o.mutex
		if m.holder == t {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d re-locking held %s", t.id, m)})
			return
		}
		if m.holder != nil {
			m.waiters = append(m.waiters, t)
			return
		}
		t.clock = cycles.Max(t.clock, m.lastRelease).Add(cycles.LockUncontended)
		e.grantLock(t, m, o.site)
		e.wake(t, opResult{})

	case opUnlock:
		m := o.mutex
		if m.holder != t {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d unlocking %s it does not hold", t.id, m)})
			return
		}
		cs := t.popSection(m)
		if cs == nil {
			e.wake(t, opResult{err: fmt.Errorf("sim: thread %d has no section for %s", t.id, m)})
			return
		}
		t.charge(e.detector.CSExit(t, cs, m))
		t.charge(cycles.LockUncontended)
		e.leaveSection(cs)
		e.noteSync("unlock", "mutex", t.id, -1, m.name, t.clock)
		delete(t.held, m)
		m.lastRelease = t.clock
		m.holder = nil
		if len(m.waiters) > 0 {
			w := e.dequeueWaiter(m)
			w.clock = cycles.Max(w.clock, m.lastRelease).Add(cycles.LockHandoff)
			m.contended++
			e.grantLock(w, m, w.pending.site)
			e.wake(w, opResult{})
		}
		e.wake(t, opResult{})

	case opBarrier:
		b := o.barrier
		b.waiting = append(b.waiting, t)
		if len(b.waiting) < b.n {
			return
		}
		var tmax cycles.Time
		for _, w := range b.waiting {
			tmax = cycles.Max(tmax, w.clock)
		}
		tmax = tmax.Add(cycles.BarrierWait)
		d := e.detector.BarrierPassed(b.waiting)
		group := b.waiting
		b.waiting = nil
		b.passes++
		e.noteSync("barrier", "threads", t.id, len(group), "", tmax)
		for _, w := range group {
			w.clock = tmax.Add(d)
			if w != t {
				e.wake(w, opResult{})
			}
		}
		e.wake(t, opResult{})

	case opSpawn:
		t.charge(cycles.ThreadSpawn)
		child := e.startThread(o.site, t.clock, o.body)
		e.detector.ThreadSpawned(t, child)
		e.noteSync("spawn", "child", t.id, child.id, o.site, t.clock)
		e.wake(t, opResult{thread: child})
		e.wake(child, opResult{})

	case opJoin:
		target := o.thread
		if target.done {
			t.clock = cycles.Max(t.clock, target.final)
			e.detector.ThreadJoined(t, target)
			e.noteSync("join", "joined", t.id, target.id, "", t.clock)
			e.wake(t, opResult{})
			return
		}
		target.joiners = append(target.joiners, t)

	case opExit:
		e.detector.ThreadExited(t)
		t.done = true
		t.final = t.clock
		e.noteSync("exit", "", t.id, -1, "", t.final)
		for _, j := range t.joiners {
			j.clock = cycles.Max(j.clock, t.final)
			e.detector.ThreadJoined(j, t)
			e.noteSync("join", "joined", j.id, t.id, "", j.clock)
			e.wake(j, opResult{})
		}
		t.joiners = nil
		e.wake(t, opResult{})

	default:
		e.wake(t, opResult{err: fmt.Errorf("sim: unknown op kind %d", o.kind)})
	}
}

// dequeueWaiter removes and returns the min-clock waiter of m.
func (e *Engine) dequeueWaiter(m *Mutex) *Thread {
	best := 0
	bestPrio := e.prio(m.waiters[0])
	for i := 1; i < len(m.waiters); i++ {
		w := m.waiters[i]
		switch {
		case w.clock < m.waiters[best].clock:
			best, bestPrio = i, e.prio(w)
		case w.clock == m.waiters[best].clock:
			if p := e.prio(w); p < bestPrio {
				best, bestPrio = i, p
			}
		}
	}
	w := m.waiters[best]
	m.waiters = append(m.waiters[:best], m.waiters[best+1:]...)
	return w
}

// grantLock completes a lock acquisition: section bookkeeping and the
// detector's CSEnter hook.
func (e *Engine) grantLock(t *Thread, m *Mutex, site string) {
	m.holder = t
	m.acquisitions++
	t.held[m] = true
	cs := e.section(site)
	cs.entries++
	e.totalCSEntries++
	t.Sections = append(t.Sections, SectionEntry{Section: cs, Mutex: m, Enter: t.clock})
	e.enterSection(cs)
	e.noteSync("lock", "site", t.id, -1, site, t.clock)
	t.charge(e.detector.CSEnter(t, cs, m))
}

func (e *Engine) enterSection(cs *CriticalSection) {
	e.activeSections[cs]++
	if n := len(e.activeSections); n > e.maxConcurrent {
		e.maxConcurrent = n
	}
}

func (e *Engine) leaveSection(cs *CriticalSection) {
	e.activeSections[cs]--
	if e.activeSections[cs] == 0 {
		delete(e.activeSections, cs)
	}
}

// popSection removes the innermost section entry of t whose mutex is m
// and returns its section, or nil.
func (t *Thread) popSection(m *Mutex) *CriticalSection {
	for i := len(t.Sections) - 1; i >= 0; i-- {
		if t.Sections[i].Mutex == m {
			cs := t.Sections[i].Section
			t.Sections = append(t.Sections[:i], t.Sections[i+1:]...)
			return cs
		}
	}
	return nil
}

// executeAccess performs one batched data access on the scalar path and
// resumes the thread; accessCore does the work, shared with batch replay.
func (e *Engine) executeAccess(t *Thread, o op) {
	if err := e.accessCore(t, o.obj, o.off, o.size, o.access, o.site); err != nil {
		e.wake(t, opResult{err: err})
		return
	}
	e.wake(t, opResult{})
}

// accessCore performs one data access: translation through the dTLB per
// touched page, the base access cost, and the detector hook. It runs on
// the goroutine holding the baton for both the scalar path and the batch
// replay, so the engine's scratch record is safe to reuse — a local
// Access would escape to the heap through the OnAccess interface call,
// costing one allocation per simulated access.
func (e *Engine) accessCore(t *Thread, obj *alloc.Object, off, size uint64, kind mpk.AccessKind, site string) error {
	if obj.Freed() {
		return fmt.Errorf("sim: thread %d use-after-free of %s at %s", t.id, obj, site)
	}
	addr := obj.Base + mem.Addr(off)
	first, last := mem.PageRange(addr, size)
	for p := first; p <= last; p++ {
		a := p.Base()
		if a < addr {
			a = addr
		}
		_, miss, minor, err := e.space.Translate(a)
		if err != nil {
			return err
		}
		if miss {
			t.charge(cycles.TLBMiss)
			e.tlbMissUnits++
			t.tlbMisses++
		} else {
			t.tlbHits++
		}
		if minor {
			t.charge(cycles.MinorFault)
		}
	}
	e.scratch = Access{Thread: t, Object: obj, Addr: addr, Size: size, Kind: kind, Site: site}
	units := e.scratch.Units()
	t.charge(cycles.Duration(units) * cycles.Access)
	t.accessUnits += units
	e.accessUnits += units
	if e.cfg.Metrics {
		obs.Std.SimAccessUnits.Add(units)
	}
	t.charge(e.detector.OnAccess(&e.scratch))
	return nil
}

// executeSweep performs one access per object of a pool in a single
// engine operation and resumes the thread; sweepCore does the work.
func (e *Engine) executeSweep(t *Thread, o op) {
	if err := e.sweepCore(t, o.objs, o.size, o.access, o.site); err != nil {
		e.wake(t, opResult{err: err})
		return
	}
	e.wake(t, opResult{})
}

// sweepCore accesses every object of a pool, translating each object's
// first page through the dTLB and invoking the detector per object. The
// engine's Access record is reused across the loop; detectors must not
// retain it past the OnAccess call.
func (e *Engine) sweepCore(t *Thread, objs []*alloc.Object, size uint64, kind mpk.AccessKind, site string) error {
	e.scratch = Access{Thread: t, Kind: kind, Site: site}
	for _, obj := range objs {
		if obj.Freed() {
			return fmt.Errorf("sim: thread %d sweep over freed %s at %s", t.id, obj, site)
		}
		sz := size
		if sz > obj.Padded {
			sz = obj.Padded
		}
		_, miss, minor, err := e.space.Translate(obj.Base)
		if err != nil {
			return err
		}
		if miss {
			t.charge(cycles.TLBMiss)
			e.tlbMissUnits++
			t.tlbMisses++
		} else {
			t.tlbHits++
		}
		if minor {
			t.charge(cycles.MinorFault)
		}
		e.scratch.Object, e.scratch.Addr, e.scratch.Size = obj, obj.Base, sz
		units := e.scratch.Units()
		t.charge(cycles.Duration(units) * cycles.Access)
		t.accessUnits += units
		e.accessUnits += units
		if e.cfg.Metrics {
			obs.Std.SimAccessUnits.Add(units)
		}
		t.charge(e.detector.OnAccess(&e.scratch))
	}
	return nil
}

// op is one pending thread operation.
type op struct {
	kind    opKind
	cost    cycles.Duration
	size    uint64
	off     uint64
	obj     *alloc.Object
	objs    []*alloc.Object
	access  mpk.AccessKind
	site    string
	mutex   *Mutex
	rwmutex *RWMutex
	cond    *Cond
	barrier *BarrierObj
	thread  *Thread
	body    func(*Thread)
}

type opKind uint8

var opNames = [...]string{
	"compute", "malloc", "free", "access", "sweep", "lock", "unlock",
	"trylock", "barrier", "spawn", "join", "exit", "rlock", "runlock",
	"wlock", "wunlock", "condwait", "condsignal", "condbroadcast",
	"drain",
}

func (k opKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

const (
	opCompute opKind = iota
	opMalloc
	opFree
	opAccess
	opSweep
	opLock
	opUnlock
	opTryLock
	opBarrier
	opSpawn
	opJoin
	opExit
	opRLock
	opRUnlock
	opWLock
	opWUnlock
	opCondWait
	opCondSignal
	opCondBroadcast
	// opDrain parks a thread whose access batch filled (or was explicitly
	// flushed) with no other operation to run; the batch replays and the
	// thread resumes. It is the only op kind with no scalar equivalent,
	// so it never advances the operation count (DESIGN.md §12).
	opDrain
)

type opResult struct {
	obj    *alloc.Object
	thread *Thread
	ok     bool
	err    error
}
