// Package harness assembles one simulated execution: a workload model, an
// allocator, and a detector, in the four configurations the paper
// evaluates (§7.2) plus the Eraser-lockset comparator:
//
//	Baseline — native allocator, no detection
//	Alloc    — Kard's unique-page allocator, no detection
//	Kard     — unique-page allocator + the Kard detector
//	TSan     — native allocator + happens-before instrumentation
//	Lockset  — native allocator + Eraser-style lockset detection
//
// On top of the single-cell Run/RunWorkload entry points, the package
// provides the parallel evaluation harness behind kardbench and
// internal/report: RunMatrix fans a workload × configuration × seed
// matrix out across a worker pool with deterministic, spec-ordered
// results, per-cell panic isolation, and context cancellation, and Cache
// is the content-addressed store (keyed by full run configuration plus
// code version) that lets repeated evaluations skip already-computed
// cells. Every simulation is deterministic, so parallel and cached runs
// are byte-identical to sequential fresh ones.
//
// That determinism is what the layers above lean on: the detection
// service (internal/service, DESIGN.md §6) journals and resumes cells,
// and the sharded cluster (internal/cluster, DESIGN.md §9) fans the
// same matrices out across worker processes with Cache as the shared
// artifact store — all without being able to change a verdict byte.
// DESIGN.md §2 inventories this package; §5 covers the failure model
// its retry hooks implement.
package harness

import (
	"fmt"
	"time"

	"kard/internal/core"
	"kard/internal/faultinject"
	"kard/internal/hb"
	"kard/internal/lockset"
	"kard/internal/sim"
	"kard/internal/trace"
	"kard/internal/workload"
)

// Mode selects the configuration.
type Mode string

const (
	ModeBaseline Mode = "baseline"
	ModeAlloc    Mode = "alloc"
	ModeKard     Mode = "kard"
	ModeTSan     Mode = "tsan"
	ModeLockset  Mode = "lockset"
)

// Modes lists all configurations in evaluation order.
var Modes = []Mode{ModeBaseline, ModeAlloc, ModeKard, ModeTSan, ModeLockset}

// Options configure one run.
type Options struct {
	Workload string
	Mode     Mode
	// Threads is the worker-thread count (default 4, the paper's
	// testing scenario).
	Threads int
	// Scale in (0,1] scales critical-section entry counts (default 1).
	Scale float64
	// Seed keys the deterministic scheduler.
	Seed int64
	// TLBEntries overrides the dTLB size (0 = default).
	TLBEntries int
	// Kard tunes the Kard detector when Mode is ModeKard.
	Kard core.Options
	// Faults, when non-empty, arms deterministic fault injection for the
	// run (see internal/faultinject); seed and plan fully determine every
	// injected failure.
	Faults faultinject.Plan
	// Timeout, when positive, bounds the run's wall-clock time: a hung
	// simulation is torn down and reported as a sim.ErrWatchdog error
	// with a thread-state dump, instead of blocking forever (default
	// off).
	Timeout time.Duration
	// Deadline, when nonzero, is an absolute wall-clock deadline
	// propagated from job submission (internal/service) down to the
	// engine: when nearer than Timeout it becomes the effective bound,
	// and a run whose deadline already passed fails with sim.ErrDeadline
	// without starting. Like Timeout it never alters a run that
	// finishes, so it does not participate in cache keys.
	Deadline time.Time
	// MaxFrames, when positive, bounds the simulated physical frame
	// pool — the per-job memory budget of the detection service.
	// Exhaustion surfaces through the allocator's degradation paths, so
	// it changes simulated behavior and participates in cache keys.
	MaxFrames uint64
	// Metrics turns on live publishing to the process-wide obs registry
	// (sim.Config.Metrics). The detection service sets it so /metrics
	// tracks running cells; it never alters simulated behavior, so like
	// Timeout it does not participate in cache keys.
	Metrics bool
	// Trace, when non-nil, is the trace track the run's engine records
	// boundary events onto (sim.Config.Trace): the run span, drains,
	// sync-rate instants. Like Metrics it never alters simulated
	// behavior, so it does not participate in cache keys, and it is
	// excluded from serialized results.
	Trace *trace.Track `json:"-"`

	// execMode is sim.Config.ExecMode. Only the package's differential
	// test sets it, to run the serial oracle; every other run takes the
	// engine's default.
	execMode string
}

// Result is one finished run.
type Result struct {
	Options Options
	Spec    workload.Spec
	Stats   *sim.Stats
	// Kard holds the detector's internal counters when Mode was
	// ModeKard.
	Kard    core.Counts
	HasKard bool
	// Summary is the engine's compact progress snapshot, journaled by
	// the detection service as the cell's checkpoint record.
	Summary sim.Summary
}

// Run executes one configuration of the named workload.
func Run(o Options) (*Result, error) {
	w, err := workload.New(o.Workload)
	if err != nil {
		return nil, err
	}
	return RunWorkload(o, w)
}

// RunWorkload executes one configuration of a caller-constructed workload
// instance (which must be fresh — instances are single-use).
func RunWorkload(o Options, w workload.Workload) (*Result, error) {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Workload == "" {
		o.Workload = w.Spec().Name
	}
	if o.Mode == "" {
		o.Mode = ModeBaseline
	}

	cfg := sim.Config{Seed: o.Seed, TLBEntries: o.TLBEntries, Faults: o.Faults,
		Watchdog: o.Timeout, Deadline: o.Deadline, MaxFrames: o.MaxFrames,
		Metrics: o.Metrics, ExecMode: o.execMode, Trace: o.Trace}
	det, err := o.Mode.Configure(&cfg, o.Kard)
	if err != nil {
		return nil, err
	}

	e := sim.New(cfg, det)
	w.Prepare(e)
	st, err := e.Run(func(m *sim.Thread) { w.Body(m, o.Threads, o.Scale) })
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", o.Workload, o.Mode, err)
	}
	r := &Result{Options: o, Spec: w.Spec(), Stats: st, Summary: e.Summary()}
	if kd, ok := det.(*core.Detector); ok {
		r.Kard = kd.Counters()
		r.HasKard = true
	}
	return r, nil
}

// Configure applies mode m's allocator choice to cfg and returns its
// detector: nil (Baseline, no detection) for ModeBaseline and ModeAlloc,
// a *core.Detector tuned by kard for ModeKard. It is the module's one
// mode → allocator/detector mapping. Callers apply their own default
// for "" first, so "" fails here like any unknown name.
func (m Mode) Configure(cfg *sim.Config, kard core.Options) (sim.Detector, error) {
	switch m {
	case ModeBaseline:
		return nil, nil
	case ModeAlloc:
		cfg.UniquePageAllocator = true
		return nil, nil
	case ModeKard:
		cfg.UniquePageAllocator = true
		return core.New(kard), nil
	case ModeTSan:
		return hb.New(hb.Options{}), nil
	case ModeLockset:
		return lockset.New(), nil
	}
	return nil, fmt.Errorf("harness: unknown mode %q", m)
}

// OverheadPct returns the percentage execution-time overhead of r over
// base.
func OverheadPct(base, r *Result) float64 {
	if base.Stats.ExecTime == 0 {
		return 0
	}
	return (float64(r.Stats.ExecTime)/float64(base.Stats.ExecTime) - 1) * 100
}

// MemOverheadPct returns the percentage peak-RSS overhead of r over base.
func MemOverheadPct(base, r *Result) float64 {
	if base.Stats.PeakRSS == 0 {
		return 0
	}
	return (float64(r.Stats.PeakRSS)/float64(base.Stats.PeakRSS) - 1) * 100
}

// DistinctRacyObjects counts a run's reported races by distinct object,
// which is how Table 6 counts "data races reported".
func DistinctRacyObjects(r *Result) int {
	seen := map[string]bool{}
	for _, race := range r.Stats.Races {
		if race.Object != nil {
			seen[race.Object.Site] = true
		}
	}
	return len(seen)
}
