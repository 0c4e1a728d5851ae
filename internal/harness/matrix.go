package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"kard/internal/faultinject"
	"kard/internal/sim"
	"kard/internal/trace"
	"kard/internal/workload"
)

// Spec is one cell of an evaluation matrix: the harness options for the
// run, plus an optional factory for workload variants that are not in the
// registry (e.g. the sized NGINX models of the §7.2 sweep).
type Spec struct {
	Options

	// Make, when non-nil, constructs the (single-use) workload instance
	// instead of resolving Options.Workload through the registry.
	// Factory specs must set Variant so cache keys stay unambiguous.
	Make func() workload.Workload `json:"-"`

	// Variant discriminates factory-built workload variants in progress
	// labels and cache keys.
	Variant string
}

// Label renders the cell compactly for progress output and errors.
func (s Spec) Label() string {
	name := s.Variant
	if name == "" {
		name = s.Workload
	}
	mode := s.Mode
	if mode == "" {
		mode = ModeBaseline
	}
	threads := s.Threads
	if threads <= 0 {
		threads = 4
	}
	return fmt.Sprintf("%s/%s/t%d/seed%d", name, mode, threads, s.Seed)
}

// MatrixResult is one finished (or failed, or cancelled) cell of a
// RunMatrix call.
type MatrixResult struct {
	Spec   Spec
	Result *Result
	Err    error
	// Index is the cell's position in the specs slice — completion
	// callbacks observe cells in completion order and use it to file
	// outcomes (e.g. journal records) under the right cell.
	Index int
	// Cached reports whether the result came from the cache rather than
	// a fresh simulation.
	Cached bool
	// Resumed reports that MatrixOptions.Resume marked the cell as
	// already completed by an earlier (crashed or drained) run: the
	// cell was skipped and Result/Err are nil — the caller merges the
	// outcome it recorded (e.g. a journaled verdict) itself.
	Resumed bool
	// Elapsed is the wall-clock cost of the cell (zero on cache hits).
	Elapsed time.Duration
	// Attempts counts simulation attempts: 0 on cache hits, 1 normally,
	// 2 when RetryTransient re-ran the cell after a transient failure.
	Attempts int
}

// MatrixOptions tune RunMatrixContext.
type MatrixOptions struct {
	// Jobs is the number of concurrent workers (0 = GOMAXPROCS). The
	// simulations are deterministic and independent, so results are
	// identical for every jobs value; only wall-clock time changes.
	Jobs int

	// Cache, when non-nil, serves previously computed cells and stores
	// fresh ones.
	Cache *Cache

	// OnCell, when non-nil, is invoked after each finished cell with the
	// completion count. Calls are serialized; done counts completion
	// order, not spec order.
	OnCell func(done, total int, r MatrixResult)

	// CellTimeout bounds each cell's wall-clock time; cells whose spec
	// already sets Options.Timeout keep their own bound. Zero leaves
	// cells unbounded (default).
	CellTimeout time.Duration

	// RetryTransient re-runs a cell once when it fails with a transient
	// injected fault or a watchdog timeout, bumping the fault plan's salt
	// so rate-based injection decisions re-roll. Deterministic: the same
	// specs and options always retry the same cells the same way.
	RetryTransient bool

	// Resume, when non-nil, reports cells a previous (crashed, killed,
	// or drained) run already completed — the detection service answers
	// from its replayed journal. Such cells are skipped entirely: their
	// MatrixResult carries Resumed=true and neither Result nor Err, and
	// OnCell still fires so progress accounting stays complete. The
	// simulations are deterministic, so merging the recorded outcomes
	// with the freshly computed ones reproduces an uninterrupted run.
	Resume func(i int, s Spec) bool

	// Trace, when non-nil, traces the matrix: each cell records onto its
	// own (pid 1, tid index+1) track — a "cell" span wrapping the
	// engine's run events, with cache hits, resumes, and retries as
	// instants. Track identity derives from spec order, not worker-pool
	// scheduling, so a same-seed campaign exports a byte-identical trace
	// whatever the jobs count (wall-clock Elapsed never enters the
	// trace). Deterministic exports additionally require Cache to be
	// nil: a hit replaces the engine's run events with a cell.cached
	// instant.
	Trace *trace.Tracer
}

// RunMatrix fans the given cells out across jobs workers and returns the
// results in spec order. It is the convenience form of RunMatrixContext
// with no cancellation, cache, or progress.
func RunMatrix(jobs int, specs []Spec) []MatrixResult {
	return RunMatrixContext(context.Background(), specs, MatrixOptions{Jobs: jobs})
}

// RunMatrixContext executes every cell of specs on a pool of worker
// goroutines and returns one MatrixResult per spec, in spec order
// regardless of completion order (the simulations are deterministic, so a
// parallel run is byte-identical to a sequential one).
//
// A panic in one cell — in the workload factory, Prepare, or (via the
// engine's own isolation) the simulated thread bodies — is converted into
// that cell's Err and does not affect other cells. Cancelling ctx stops
// handing out new cells; cells never started carry ctx's error.
func RunMatrixContext(ctx context.Context, specs []Spec, mo MatrixOptions) []MatrixResult {
	jobs := mo.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(specs) {
		jobs = len(specs)
	}
	if jobs < 1 {
		jobs = 1
	}

	results := make([]MatrixResult, len(specs))
	indices := make(chan int)
	go func() {
		defer close(indices)
		for i := range specs {
			// Checking Err first makes cancellation deterministic: with
			// both channels ready, select alone could still hand out the
			// next cell.
			if ctx.Err() != nil {
				return
			}
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes OnCell and the done count
		done int
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i] = runCell(i, specs[i], mo)
				if mo.OnCell != nil {
					mu.Lock()
					done++
					mo.OnCell(done, len(specs), results[i])
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Result == nil && results[i].Err == nil && !results[i].Resumed {
				results[i] = MatrixResult{Spec: specs[i], Err: err}
			}
		}
	}
	return results
}

// runCell executes one cell: resume check, cache lookup, simulation
// (with an optional single retry on transient failure), cache store.
func runCell(i int, spec Spec, mo MatrixOptions) MatrixResult {
	mr := MatrixResult{Spec: spec, Index: i}
	var tk *trace.Track
	if mo.Trace != nil {
		// One track per cell, tid = 1-based spec index: track identity
		// (and every span ID minted on it) is a pure function of the
		// spec list, independent of which worker picks the cell up. The
		// engine's run/drain/sync events land on this same track, nested
		// under the cell span; all timestamps here are logical (-1 =
		// "just after the previous event"), never wall clock.
		tk = mo.Trace.Track(1, i+1, spec.Label(), 0)
		spec.Options.Trace = tk
		tk.BeginArg("cell", "harness", 0, "cell", spec.Label())
	}
	if mo.Resume != nil && mo.Resume(i, spec) {
		mr.Resumed = true
		tk.Instant("cell.resumed", "harness", -1)
		tk.EndArg("cell", "harness", -1, "attempts", 0)
		return mr
	}
	if spec.Timeout == 0 {
		spec.Options.Timeout = mo.CellTimeout
	}
	if mo.Cache != nil {
		if r, ok := mo.Cache.Get(spec); ok {
			mr.Result, mr.Cached = r, true
			tk.InstantArg("cell.cached", "harness", -1, "races", "", int64(len(r.Stats.Races)))
			tk.EndArg("cell", "harness", -1, "attempts", 0)
			return mr
		}
	}
	start := time.Now()
	mr.Result, mr.Err = runCellIsolated(spec)
	mr.Attempts = 1
	if mr.Err != nil && mo.RetryTransient && retryable(mr.Err) {
		// Bumping the salt re-rolls rate-based injection decisions while
		// keeping the retry itself deterministic; Every-based firings are
		// salt-independent, so a plan built purely on Every reproduces
		// the failure and the retry reports it.
		tk.InstantArg("cell.retry", "harness", -1, "err", mr.Err.Error(), 1)
		spec.Faults = spec.Faults.WithSalt(spec.Faults.Salt + 1)
		mr.Result, mr.Err = runCellIsolated(spec)
		mr.Attempts = 2
	}
	mr.Elapsed = time.Since(start)
	if mr.Err == nil && mo.Cache != nil {
		// Best effort: a full or read-only cache directory must not sink
		// an otherwise healthy run. Put counts failures in Stats().
		// Retried cells are stored under the salt-bumped spec they
		// actually ran with.
		_ = mo.Cache.Put(spec, mr.Result)
	}
	if mr.Err != nil {
		tk.InstantArg("cell.error", "harness", -1, "err", mr.Err.Error(), 0)
	}
	tk.EndArg("cell", "harness", -1, "attempts", int64(mr.Attempts))
	return mr
}

// retryable reports whether a cell failure is worth one more attempt: a
// transient injected fault that exhausted its in-run retries, or a
// watchdog timeout.
func retryable(err error) bool {
	return faultinject.IsTransient(err) || errors.Is(err, sim.ErrWatchdog)
}

// runCellIsolated runs the simulation behind a recover so a panicking
// workload factory or Prepare turns into a per-cell error.
func runCellIsolated(spec Spec) (r *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("harness: panic in cell %s: %v\n%s", spec.Label(), p, debug.Stack())
		}
	}()
	if spec.Make != nil {
		return RunWorkload(spec.Options, spec.Make())
	}
	return Run(spec.Options)
}
