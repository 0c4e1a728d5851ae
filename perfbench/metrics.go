package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"kard/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatches keeps the two in
// step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of each path sees, measured with
// tracing off. Every workload reports every one of them, so each is
// defined for all three paths (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaign_s", "s", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics, one block per module. Every
// workload reports all of them; a layer a workload does not exercise
// reads 0 there. The kardd job latencies and the simulator's error
// against the paper belong to one workload each, so they are reported
// here, measured on untraced work.
var perLayer = []metricDef{
	{"harness.cell_s.baseline", "s", "lower"},
	{"harness.cell_s.alloc", "s", "lower"},
	{"harness.cell_s.kard", "s", "lower"},
	{"harness.cell_s.tsan", "s", "lower"},
	{"harness.idle_share", "ratio", "lower"},
	{"harness.cache_hits", "count", "higher"},
	{"harness.cache_misses", "count", "lower"},
	{"harness.cache_writes", "count", "lower"},
	{"harness.cache_hit_ratio", "ratio", "higher"},
	{"workload.prepare_s", "s", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"sim.ns_per_op", "ns", "lower"},
	{"sim.ops", "count", "lower"},
	{"sim.drains", "count", "lower"},
	{"sim.epochs", "count", "higher"},
	{"sim.epoch_accesses", "count", "higher"},
	{"sim.epoch_veto_ratio", "ratio", "lower"},
	{"sim.batch_depth_mean", "count", "higher"},
	{"sim.kard_ovh_err_pct", "%", "lower"},
	{"sim.alloc_ovh_err_pct", "%", "lower"},
	{"sim.kard_mem_err_pct", "%", "lower"},
	{"sim.tsan_ovh_err_pct", "%", "lower"},
	{"mem.tlb_misses", "count", "lower"},
	{"mem.tlb_miss_ratio", "ratio", "lower"},
	{"mem.mmap_calls", "count", "lower"},
	{"mem.protect_calls", "count", "lower"},
	{"mpk.wrpkru", "count", "lower"},
	{"mpk.pkey_mprotect", "count", "lower"},
	{"alloc.unique_pages", "count", "lower"},
	{"alloc.fallbacks", "count", "lower"},
	{"core.hook_s", "s", "lower"},
	{"core.faults", "count", "lower"},
	{"core.key_recycles", "count", "lower"},
	{"core.key_sharing", "count", "lower"},
	{"core.pruned", "count", "lower"},
	{"hb.hook_s", "s", "lower"},
	{"service.fresh_job_p50_ms", "ms", "lower"},
	{"service.fresh_job_p99_ms", "ms", "lower"},
	{"service.hit_job_p50_ms", "ms", "lower"},
	{"service.hit_job_p99_ms", "ms", "lower"},
	{"service.submit_ms_p50", "ms", "lower"},
	{"service.submit_ms_p99", "ms", "lower"},
	{"service.wait_ms_p50", "ms", "lower"},
	{"service.fetch_ms_p50", "ms", "lower"},
	{"service.polls_per_job", "count", "lower"},
	{"service.rejects", "count", "lower"},
	{"journal.appends_per_job", "count", "lower"},
	{"journal.kb_per_job", "KiB", "lower"},
	{"journal.fsync_ms_mean", "ms", "lower"},
	{"journal.compactions", "count", "lower"},
	{"cluster.lease_ms_p50", "ms", "lower"},
	{"cluster.lease_ms_p90", "ms", "lower"},
	{"cluster.complete_ms_p50", "ms", "lower"},
	{"cluster.complete_ms_p90", "ms", "lower"},
	{"cluster.heartbeat_ms_p50", "ms", "lower"},
	{"cluster.server_lease_ms_p50", "ms", "lower"},
	{"cluster.server_complete_ms_p50", "ms", "lower"},
	{"cluster.cell_ms_p50", "ms", "lower"},
	{"cluster.cell_ms_p90", "ms", "lower"},
	{"cluster.busy_share", "ratio", "higher"},
	{"cluster.complete_kb_p50", "KiB", "lower"},
	{"cluster.journal_fsync_ms_mean", "ms", "lower"},
	{"cluster.lease_waits", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.store_misses", "count", "lower"},
	{"go.gc_cpu_share", "ratio", "lower"},
	{"go.alloc_mb", "MiB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.unattributed_share", "ratio", "lower"},
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle of xs, or the mean of the middle two when
// their number is even (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 0.5)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// another reports whether one more repetition, taking as long as the
// mean of those so far, still ends within dur of start. A run always
// makes at least one.
func another(start time.Time, dur time.Duration, took []float64) bool {
	return len(took) == 0 || time.Since(start)+time.Duration(mean(took)*float64(time.Second)) <= dur
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the process's host peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counters is a snapshot of the process-global counters the program
// already exposes. The obs registry is shared by every run in the
// process, so layers are measured as deltas between two snapshots.
type counters map[string]float64

func snapshot() counters {
	m := obs.Std
	c := counters{
		"mem.tlb_hits":         float64(m.MemTLBHits.Value()),
		"mem.tlb_misses":       float64(m.MemTLBMisses.Value()),
		"mem.mmap_calls":       float64(m.MemMmapCalls.Value()),
		"mem.protect_calls":    float64(m.MemProtectCalls.Value()),
		"mpk.wrpkru":           float64(m.MpkWRPKRU.Value()),
		"mpk.pkey_mprotect":    float64(m.MpkPkeyMprotect.Value()),
		"alloc.unique_pages":   float64(m.AllocUniquePages.Value()),
		"alloc.fallbacks":      float64(m.AllocFallbacks.Value()),
		"sim.drains":           float64(m.SimBatchDrains.Value()),
		"sim.epochs":           float64(m.SimEpochs.Value()),
		"sim.epoch_accesses":   float64(m.SimEpochAccesses.Value()),
		"sim.epoch_vetoes":     float64(m.SimEpochVetoes.Value()),
		"sim.depth_sum":        m.SimBatchDepth.Sum(),
		"sim.depth_count":      float64(m.SimBatchDepth.Count()),
		"journal.fsync_sum":    m.SvcJournalFsync.Sum(),
		"journal.fsync_count":  float64(m.SvcJournalFsync.Count()),
		"cluster.fsync_sum":    m.ClusterJournalFsync.Sum(),
		"cluster.fsync_count":  float64(m.ClusterJournalFsync.Count()),
		"cluster.store_misses": float64(m.ClusterStoreMisses.Value()),
		"cluster.retries": float64(m.ClusterRetryJoin.Value() + m.ClusterRetryLease.Value() +
			m.ClusterRetryComplete.Value() + m.ClusterRetryHeartbeat.Value()),
	}
	for name, v := range goSnapshot() {
		c[name] = v
	}
	return c
}

// sub returns the per-key difference c − before.
func (c counters) sub(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

var goSamples = map[string]string{
	"go.gc_cpu_s":    "/cpu/classes/gc/total:cpu-seconds",
	"go.cpu_s":       "/cpu/classes/total:cpu-seconds",
	"go.alloc_bytes": "/gc/heap/allocs:bytes",
	"go.gc_cycles":   "/gc/cycles/total:gc-cycles",
}

func goSnapshot() counters {
	names := make([]string, 0, len(goSamples))
	samples := make([]metrics.Sample, 0, len(goSamples))
	for name, key := range goSamples {
		names = append(names, name)
		samples = append(samples, metrics.Sample{Name: key})
	}
	metrics.Read(samples)
	c := counters{}
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			c[names[i]] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			c[names[i]] = s.Value.Float64()
		}
	}
	return c
}

// layerCounts fills the per-layer metrics every workload derives from
// the process-global counters over its traced window d.
func layerCounts(m map[string]float64, d counters) {
	for _, k := range []string{"mem.mmap_calls", "mem.protect_calls", "mem.tlb_misses",
		"mpk.wrpkru", "mpk.pkey_mprotect", "alloc.unique_pages", "alloc.fallbacks",
		"sim.drains", "sim.epochs", "sim.epoch_accesses", "cluster.store_misses", "cluster.retries"} {
		m[k] = d[k]
	}
	m["mem.tlb_miss_ratio"] = ratio(d["mem.tlb_misses"], d["mem.tlb_hits"]+d["mem.tlb_misses"])
	m["sim.epoch_veto_ratio"] = ratio(d["sim.epoch_vetoes"], d["sim.epochs"]+d["sim.epoch_vetoes"])
	m["sim.batch_depth_mean"] = ratio(d["sim.depth_sum"], d["sim.depth_count"])
	m["journal.fsync_ms_mean"] = 1000 * ratio(d["journal.fsync_sum"], d["journal.fsync_count"])
	m["cluster.journal_fsync_ms_mean"] = 1000 * ratio(d["cluster.fsync_sum"], d["cluster.fsync_count"])
	m["go.gc_cpu_share"] = ratio(d["go.gc_cpu_s"], d["go.cpu_s"])
	m["go.alloc_mb"] = d["go.alloc_bytes"] / (1 << 20)
	m["go.gc_cycles"] = d["go.gc_cycles"]
}
