// Package kard is a from-scratch reproduction of "Kard: Lightweight Data
// Race Detection with Per-Thread Memory Protection" (ASPLOS 2021) as a Go
// library.
//
// Because Intel MPK cannot be used from Go (PKRU is per-OS-thread while
// goroutines migrate, and the Go runtime owns the allocator), the library
// ships a faithful simulated substrate — virtual memory with protection
// keys, a deterministic threaded execution engine with a cycle-accurate
// cost model, and Kard's unique-page allocator — and implements the
// paper's key-enforced race detection algorithm, protection domains,
// protection interleaving, and report pruning on top of it. See DESIGN.md
// for the substitution map and EXPERIMENTS.md for paper-vs-measured
// results.
//
// Two entry points:
//
//   - System runs a custom simulated program you write against the
//     Thread API (threads, locks, barriers, heap objects) under any of
//     the detectors:
//
//     sys := kard.NewSystem(kard.Config{Detector: kard.DetectorKard})
//     mu := sys.NewMutex("m")
//     rep, err := sys.Run(func(main *kard.Thread) { ... })
//
//   - RunWorkload runs one of the 19 packaged application models from
//     the paper's evaluation (PARSEC, SPLASH-2x, NGINX, memcached, pigz,
//     Aget) in a chosen configuration:
//
//     rep, err := kard.RunWorkload("memcached", kard.WorkloadConfig{})
//
// # Paper map
//
// Each internal package carries the paper sections it implements in its
// own doc comment; together they index the paper:
//
//	internal/cycles      virtual-time cost model (§2.2, §7.1 testbed)
//	internal/mem         virtual memory, memfd, dTLB (§5.3)
//	internal/mpk         Intel MPK: keys, PKRU, #GP faults (§2.2)
//	internal/alloc       unique-page + native allocators (§5.3, §6)
//	internal/sim         execution engine, compiler-pass stand-in (§6)
//	internal/core        the Kard detector (§4 Algorithm 1, §5.2, §5.4–5.5)
//	internal/hb          happens-before "TSan" comparator (Tables 3, 6)
//	internal/lockset     Eraser lockset comparator (§3.1)
//	internal/workload    the 19 evaluated applications (Table 3)
//	internal/racecatalog classic race patterns per detector (Tables 1, 2)
//	internal/harness     run assembly + parallel matrix & cache (§7.2)
//	internal/report      every table and figure of §7
package kard

import (
	"fmt"

	"kard/internal/alloc"
	"kard/internal/core"
	"kard/internal/harness"
	"kard/internal/sim"
	"kard/internal/workload"
)

// Re-exported execution types. A Thread is a simulated program thread; its
// methods (Lock, Unlock, Read, Write, Malloc, Free, Go, Join, Barrier,
// Compute) are the operations the paper's LLVM pass would instrument.
type (
	// Thread is a simulated thread handle passed to program bodies.
	Thread = sim.Thread
	// Mutex is a simulated lock created with System.NewMutex.
	Mutex = sim.Mutex
	// Barrier is a simulated barrier created with System.NewBarrier.
	Barrier = sim.BarrierObj
	// Object is a sharable heap or global object handle.
	Object = alloc.Object
	// Race is one reported potential data race record (§5.5).
	Race = sim.Race
	// Stats are the run statistics (execution time in virtual cycles,
	// peak RSS, dTLB miss rate, section counts).
	Stats = sim.Stats
	// KardCounters are the Kard detector's internal event counters
	// (faults, key recycling/sharing, pruning).
	KardCounters = core.Counts
)

// DetectorKind selects the detection configuration (§7.2).
type DetectorKind string

const (
	// DetectorNone runs without detection on the native allocator —
	// the paper's Baseline.
	DetectorNone DetectorKind = "baseline"
	// DetectorAllocOnly runs Kard's unique-page allocator without
	// detection — the paper's Alloc configuration.
	DetectorAllocOnly DetectorKind = "alloc"
	// DetectorKard runs the Kard detector (the paper's contribution).
	DetectorKard DetectorKind = "kard"
	// DetectorTSan runs the happens-before (ThreadSanitizer-style)
	// comparator with per-access instrumentation costs.
	DetectorTSan DetectorKind = "tsan"
	// DetectorLockset runs the Eraser-style lockset comparator.
	DetectorLockset DetectorKind = "lockset"
)

// KardOptions tune the Kard detector; the zero value is the paper's
// configuration.
type KardOptions struct {
	// DisableInterleaving turns protection interleaving (§5.5) off.
	DisableInterleaving bool
	// DisableProactive turns proactive key acquisition (§5.4) off.
	DisableProactive bool
	// NonILUExtension enables the §8 extension that claims keys outside
	// critical sections.
	NonILUExtension bool
	// SoftwareFallback enables the §8 software fallback: unlimited
	// virtual keys instead of key sharing when MPK's keys run out.
	SoftwareFallback bool
}

func (o KardOptions) internal() core.Options {
	return core.Options{
		DisableInterleaving: o.DisableInterleaving,
		DisableProactive:    o.DisableProactive,
		NonILUExtension:     o.NonILUExtension,
		SoftwareFallback:    o.SoftwareFallback,
	}
}

// Config configures a System.
type Config struct {
	// Detector selects the detection configuration (default
	// DetectorKard).
	Detector DetectorKind
	// Seed keys the deterministic scheduler; different seeds explore
	// different interleavings reproducibly.
	Seed int64
	// TLBEntries sizes the dTLB model (0 = a Xeon-like 1536 entries).
	TLBEntries int
	// TLBModel selects the dTLB replacement model: "" or "clock" for the
	// default flat CLOCK model, "setassoc" for the evaluation machine's
	// two-level set-associative geometry (64-entry 8-way L1 dTLB +
	// 1536-entry 12-way STLB; TLBEntries is then ignored). The CLOCK
	// model remains the default because its hit/miss sequences pin the
	// repository's golden outputs.
	TLBModel string
	// Kard tunes the Kard detector when Detector is DetectorKard.
	Kard KardOptions
}

// Report is the outcome of a run.
type Report struct {
	// Stats are the engine-level run statistics.
	Stats *Stats
	// Races are the detector's filtered race records.
	Races []Race
	// Kard holds detector counters when the Kard detector ran.
	Kard *KardCounters
}

// RacyObjects returns the number of distinct objects with at least one
// race record — how the paper's Table 6 counts reported races.
func (r *Report) RacyObjects() int {
	seen := map[string]bool{}
	for _, race := range r.Races {
		if race.Object != nil {
			seen[race.Object.Site] = true
		}
	}
	return len(seen)
}

// System is one simulated machine + detector, ready to run a program.
// Systems are single-use: create, optionally declare globals and locks,
// call Run once.
type System struct {
	eng *sim.Engine
	kd  *core.Detector
}

// NewSystem creates a system with the given configuration. It panics on
// an unknown Detector.
func NewSystem(cfg Config) *System {
	sc := sim.Config{Seed: cfg.Seed, TLBEntries: cfg.TLBEntries, TLBModel: cfg.TLBModel}
	mode := harness.Mode(cfg.Detector)
	if mode == "" {
		mode = harness.ModeKard
	}
	det, err := mode.Configure(&sc, cfg.Kard.internal())
	if err != nil {
		panic(fmt.Sprintf("kard: unknown detector %q", cfg.Detector))
	}
	kd, _ := det.(*core.Detector)
	return &System{eng: sim.New(sc, det), kd: kd}
}

// Global declares a global variable of the given size before the run, as
// Kard's compiler pass registers globals at program start (§5.3).
func (s *System) Global(size uint64, name string) *Object {
	return s.eng.Global(size, name)
}

// NewMutex creates a lock.
func (s *System) NewMutex(name string) *Mutex { return s.eng.NewMutex(name) }

// NewBarrier creates a barrier for n participants.
func (s *System) NewBarrier(n int) *Barrier { return s.eng.NewBarrier(n) }

// Run executes body as the program's main thread and returns the report.
// It fails if the simulated program deadlocks.
func (s *System) Run(body func(main *Thread)) (*Report, error) {
	st, err := s.eng.Run(body)
	if err != nil {
		return nil, err
	}
	rep := &Report{Stats: st, Races: st.Races}
	if s.kd != nil {
		c := s.kd.Counters()
		rep.Kard = &c
	}
	return rep, nil
}

// WorkloadConfig configures a packaged-workload run.
type WorkloadConfig struct {
	// Detector selects the configuration (default DetectorKard).
	Detector DetectorKind
	// Threads is the worker count (default 4, the paper's testing
	// scenario).
	Threads int
	// Scale in (0,1] scales critical-section entry counts (default 1).
	Scale float64
	// Seed keys the deterministic scheduler.
	Seed int64
	// Kard tunes the detector when Detector is DetectorKard.
	Kard KardOptions
}

// RunWorkload runs one of the packaged application models. See Workloads
// for the available names.
func RunWorkload(name string, cfg WorkloadConfig) (*Report, error) {
	mode := harness.Mode(cfg.Detector)
	if cfg.Detector == "" {
		mode = harness.ModeKard
	}
	r, err := harness.Run(harness.Options{
		Workload: name,
		Mode:     mode,
		Threads:  cfg.Threads,
		Scale:    cfg.Scale,
		Seed:     cfg.Seed,
		Kard:     cfg.Kard.internal(),
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Stats: r.Stats, Races: r.Stats.Races}
	if r.HasKard {
		c := r.Kard
		rep.Kard = &c
	}
	return rep, nil
}

// Workloads lists the packaged application models in the paper's table
// order.
func Workloads() []string { return workload.Names() }
