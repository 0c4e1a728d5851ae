// Command benchgate runs the repository's hot-path benchmarks, writes the
// results as JSON, and optionally gates on a committed baseline: it exits
// nonzero when any benchmark's ns/op regresses beyond a threshold or its
// allocs/op rises at all (the zero-allocation fast path is an invariant,
// not a statistic).
//
// Usage:
//
//	benchgate -out BENCH_2026-08-06.json                 # measure and record
//	benchgate -baseline BENCH_baseline.json              # measure and gate
//	benchgate -baseline BENCH_baseline.json -threshold 20
//
// Each benchmark runs -count times and the median ns/op is kept — the
// same estimator benchstat uses, and much more stable than the mean or
// minimum on a shared CI machine where interference is bursty. A gate
// failure prints the offending benchmarks and the percentage deltas.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gated enumerates the benchmarks the gate requires: the memory-layer hot
// paths and the engine's end-to-end access loops. A baseline benchmark
// missing from the current run fails the gate (a deleted benchmark can't
// prove anything). nsGate is off for scheduler-bound benchmarks whose
// timing is dominated by goroutine handoffs (too noisy for a tight
// threshold on a shared machine); their allocs/op — the invariant that
// actually protects the fast path — is deterministic and stays gated.
// maxNS, when nonzero, is an absolute ns/op ceiling enforced regardless
// of the baseline: it pins a performance contract rather than a relative
// drift bound — the access loops stay within ~3x their measured cost, and
// a park that resumes its own thread makes no goroutine switch, since the
// parking thread runs the scheduler itself (OpDispatch, LockUnlock).
// zeroAlloc holds a benchmark at 0 allocs/op even when the baseline
// predates it.
var gated = []struct {
	name      string
	nsGate    bool
	maxNS     float64
	zeroAlloc bool
}{
	{name: "TranslateHit", nsGate: true},
	{name: "TranslateMiss", nsGate: true},
	{name: "TLBEvict", nsGate: true},
	{name: "RadixWalk", nsGate: true},
	{name: "MmapAnon", nsGate: true},
	{name: "Protect", nsGate: true},
	{name: "AccessSteadyState", maxNS: 160},
	{name: "AccessSteadyStateMetrics", maxNS: 200},
	{name: "AccessSteadyStateTraced", maxNS: 200},
	{name: "AccessMultiPage", maxNS: 600, zeroAlloc: true}, // one 32-page run
	{name: "OpDispatch", maxNS: 250},
	{name: "ComputeBuffered", maxNS: 60, zeroAlloc: true}, // a batch entry; a park per 128
	{name: "LockUnlock", maxNS: 1000},
	{name: "AccessBatchedParallel"}, // 4-thread batched replay, full batches
	{name: "ReconcileSyncPoint"},    // 4-thread batched replay, a drain per 16 accesses
	{name: "Sweep"},
}

// packages holds the benchmark packages to run.
var packages = []string{"kard/internal/mem", "kard/internal/sim"}

// result is one benchmark's aggregated measurement.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// file is the on-disk BENCH_*.json schema.
type file struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go_version"`
	CPU        string            `json:"cpu,omitempty"`
	Benchtime  string            `json:"benchtime"`
	Count      int               `json:"count"`
	PadPercent float64           `json:"pad_percent,omitempty"`
	Notes      string            `json:"notes,omitempty"`
	Benchmarks map[string]result `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "", "write results as JSON to this file")
		baseline  = flag.String("baseline", "", "gate against this BENCH_*.json; exit 1 on regression")
		threshold = flag.Float64("threshold", 15, "max allowed ns/op regression in percent")
		benchtime = flag.String("benchtime", "0.5s", "per-benchmark measurement time")
		count     = flag.Int("count", 3, "runs per benchmark (median ns/op is kept)")
		pad       = flag.Float64("pad", 0, "inflate recorded ns/op by this percent (baseline headroom for shared-machine noise)")
		notes     = flag.String("notes", "", "free-form note recorded in the JSON")
	)
	flag.Parse()
	if *out == "" && *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchgate: nothing to do; pass -out and/or -baseline")
		flag.Usage()
		os.Exit(2)
	}

	cur, cpu, err := run(*benchtime, *count)
	if err != nil {
		fatal(err)
	}
	for _, g := range gated {
		if _, ok := cur[g.name]; !ok {
			fatal(fmt.Errorf("benchmark %s did not run; the gate set in cmd/benchgate must match the *_bench_test.go files", g.name))
		}
	}

	if *out != "" {
		recorded := cur
		if *pad > 0 {
			// A baseline recorded at the machine's momentary speed makes
			// the gate fire on co-tenant load swings rather than code
			// changes; padding the ceiling keeps it sensitive to real
			// regressions (an accidental map or allocation on the hot
			// path costs 2-10x, far beyond any pad) without the flakes.
			recorded = make(map[string]result, len(cur))
			for name, r := range cur {
				r.NsPerOp *= 1 + *pad/100
				r.OpsPerSec = 1e9 / r.NsPerOp
				recorded[name] = r
			}
		}
		f := file{
			Date:       time.Now().UTC().Format("2006-01-02"),
			GoVersion:  runtime.Version(),
			CPU:        cpu,
			Benchtime:  *benchtime,
			Count:      *count,
			PadPercent: *pad,
			Notes:      *notes,
			Benchmarks: recorded,
		}
		buf, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %s\n", *out)
	}

	if *baseline != "" {
		base, err := load(*baseline)
		if err != nil {
			fatal(err)
		}
		if failures := gate(base.Benchmarks, cur, *threshold); len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL vs %s (threshold %.0f%%):\n", *baseline, *threshold)
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "  "+f)
			}
			os.Exit(1)
		}
		fmt.Printf("benchgate: ok, %d benchmarks within %.0f%% of %s\n", len(base.Benchmarks), *threshold, *baseline)
	}
}

// run executes the benchmark packages and returns per-benchmark minima
// plus the CPU string go test reports.
func run(benchtime string, count int) (map[string]result, string, error) {
	names := make([]string, len(gated))
	for i, g := range gated {
		names[i] = g.name
	}
	pattern := "^Benchmark(" + strings.Join(names, "|") + ")$"
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count)}
	args = append(args, packages...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBuf, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("go test -bench: %w", err)
	}
	samples := map[string][]result{}
	cpu := ""
	sc := bufio.NewScanner(bytes.NewReader(outBuf))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = rest
			continue
		}
		if name, r, ok := parseLine(line); ok {
			samples[name] = append(samples[name], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	// Median ns/op across the runs; allocs and bytes are deterministic
	// and identical, so any run's values serve.
	results := make(map[string]result, len(samples))
	for name, rs := range samples {
		sort.Slice(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		r := rs[len(rs)/2]
		if n := len(rs); n%2 == 0 {
			r.NsPerOp = (rs[n/2-1].NsPerOp + rs[n/2].NsPerOp) / 2
			r.OpsPerSec = 1e9 / r.NsPerOp
		}
		results[name] = r
	}
	return results, cpu, nil
}

// parseLine parses one `go test -bench -benchmem` result line, e.g.
//
//	BenchmarkTranslateHit  \t61526518\t  3.358 ns/op\t  0 B/op\t  0 allocs/op
//
// returning the bare name (Benchmark prefix and -cpu suffix stripped).
func parseLine(line string) (string, result, bool) {
	f := strings.Fields(line)
	if len(f) < 8 || !strings.HasPrefix(f[0], "Benchmark") ||
		f[3] != "ns/op" || f[5] != "B/op" || f[7] != "allocs/op" {
		return "", result{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		name = name[:i]
	}
	ns, err1 := strconv.ParseFloat(f[2], 64)
	bytes, err2 := strconv.ParseUint(f[4], 10, 64)
	allocs, err3 := strconv.ParseUint(f[6], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || ns <= 0 {
		return "", result{}, false
	}
	return name, result{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs, OpsPerSec: 1e9 / ns}, true
}

// gate compares current results against the baseline and returns
// human-readable failure lines (empty = pass).
func gate(base, cur map[string]result, threshold float64) []string {
	var failures []string
	for _, g := range gated {
		if c, ok := cur[g.name]; ok && g.maxNS > 0 && c.NsPerOp > g.maxNS {
			failures = append(failures, fmt.Sprintf("%s: %.2f ns/op exceeds the absolute ceiling %.0f ns/op",
				g.name, c.NsPerOp, g.maxNS))
		}
		if c, ok := cur[g.name]; ok && g.zeroAlloc && c.AllocsPerOp > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, want 0", g.name, c.AllocsPerOp))
		}
		b, inBase := base[g.name]
		if !inBase {
			continue // baseline predates this benchmark; nothing to hold it to
		}
		c, inCur := cur[g.name]
		if !inCur {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but did not run", g.name))
			continue
		}
		if delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100; g.nsGate && delta > threshold {
			failures = append(failures, fmt.Sprintf("%s: %.2f ns/op vs baseline %.2f (+%.1f%% > %.0f%%)",
				g.name, c.NsPerOp, b.NsPerOp, delta, threshold))
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (allocation regressions are never allowed)",
				g.name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return failures
}

func load(path string) (*file, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f file
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
