// Command kardbench regenerates the tables and figures of the Kard paper's
// evaluation (§7) from the simulated reproduction.
//
// Usage:
//
//	kardbench -all                    # everything (slow at -scale 1)
//	kardbench -all -jobs 8 -progress  # fan cells out across 8 workers
//	kardbench -all -cachedir .cache   # skip already-computed cells
//	kardbench -table 3 -scale 0.2     # Table 3 at reduced entry counts
//	kardbench -table 5                # memcached key sharing/recycling
//	kardbench -table 6                # real-world races, Kard vs TSan
//	kardbench -figure 5               # scalability at 8/16/32 threads
//	kardbench -sweep nginx            # §7.2 file-size sweep
//	kardbench -table ilu              # §3.1 ILU share over the corpus
//	kardbench -chaos                  # fault-injection soak: verdicts must hold
//	kardbench -table 6 -trace t.json  # export a Chrome/Perfetto trace of the campaign
//	kardbench -daemon                 # kardd service smoke: crash, recover, verify
//
// The -scale flag trades run time for fidelity of the absolute counters
// (entries, faults); overhead percentages are far less sensitive. The
// final numbers recorded in EXPERIMENTS.md were produced at -scale 1.
//
// Every simulation is deterministic, so -jobs only changes wall-clock
// time, never the output, and -cachedir results stay valid until the code
// changes (cache keys embed the VCS revision when the binary carries one).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"kard/internal/obs"
	"kard/internal/report"
	"kard/internal/trace"
)

// known enumerates the valid values of the selector flags; anything else
// is rejected with a usage message instead of silently doing nothing.
var known = map[string]map[string]bool{
	"table":  {"1": true, "2": true, "3": true, "4": true, "5": true, "6": true, "ilu": true},
	"figure": {"5": true},
	"sweep":  {"nginx": true},
}

func main() {
	var (
		table    = flag.String("table", "", "regenerate one table: 1, 2, 3, 4, 5, 6, or ilu")
		figure   = flag.String("figure", "", "regenerate one figure: 5")
		sweep    = flag.String("sweep", "", "run a parameter sweep: nginx")
		chaos    = flag.Bool("chaos", false, "run the fault-injection soak: race verdicts must not change under the default fault plan")
		daemon   = flag.Bool("daemon", false, "run the kardd service smoke: crash-recovered verdicts must match an uninterrupted run")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		threads  = flag.Int("threads", 4, "worker threads (the paper's testing scenario is 4)")
		scale    = flag.Float64("scale", 0.2, "critical-section entry scale in (0,1]")
		seed     = flag.Int64("seed", 1, "deterministic scheduler seed")
		jobs     = flag.Int("jobs", 0, "parallel simulation workers (0 = all CPUs); output is identical for every value")
		cachedir = flag.String("cachedir", "", "cache finished cells as JSON under this directory and reuse them")
		progress = flag.Bool("progress", false, "print per-cell progress (done/total, cost, ETA) to stderr")
		verbose  = flag.Bool("v", false, "alias for -progress")
		outPath  = flag.String("o", "", "write output to this file instead of stdout")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metrics  = flag.String("metrics", "", "write a Prometheus-text snapshot of the run's metrics to this file at exit (- for stderr)")
		traceOut = flag.String("trace", "", "export a Chrome trace-event JSON of the campaign to this file (Perfetto/chrome://tracing); same seed = byte-identical export while nothing is dropped (the export keeps up to 2M events; -table 6 at the default -scale needs ~1.4M)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	validate("table", *table)
	validate("figure", *figure)
	validate("sweep", *sweep)

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	o := report.Options{Threads: *threads, Scale: *scale, Seed: *seed,
		Jobs: *jobs, CacheDir: *cachedir}
	if *progress || *verbose {
		o.Progress = os.Stderr
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		// The trace ID and every span ID derive from the scheduler seed,
		// and the per-cell tracks use virtual clocks, so two runs with the
		// same seed export byte-identical JSON. The cache is bypassed while
		// tracing (a cache hit would replace a cell's engine events with a
		// single instant).
		if *cachedir != "" {
			fmt.Fprintln(os.Stderr, "kardbench: -trace bypasses -cachedir (every cell must execute for a deterministic export)")
		}
		// A full spool drops events, and which ones depends on worker
		// timing, so the campaign export gets twice the daemon budget.
		tracer = trace.NewTracer(*seed, "kardbench", 2*trace.DefaultSpoolBudget)
		tracer.ProcessName(1, "kardbench-harness")
		o.Trace = tracer
	}

	start := time.Now()
	run := func(name string, f func() error) {
		fmt.Fprintf(out, "==== %s ====\n\n", name)
		if err := f(); err != nil {
			fatal(err)
		}
		fmt.Fprintln(out)
	}

	did := false
	want := func(kind, which string) bool {
		switch kind {
		case "table":
			return *all || *table == which
		case "figure":
			return *all || *figure == which
		case "sweep":
			return *all || *sweep == which
		}
		return false
	}

	if want("table", "1") {
		did = true
		run("Table 1 (ILU scope)", func() error { return report.Table1(out, o) })
	}
	if want("table", "2") {
		did = true
		run("Table 2 (approach comparison)", func() error { report.Table2(out, -1); return nil })
	}
	if want("table", "3") {
		did = true
		run("Table 3 (overheads)", func() error { _, err := report.Table3(out, o); return err })
	}
	if want("table", "4") {
		did = true
		run("Table 4 (FP/FN mitigations)", func() error { return report.Table4(out, o) })
	}
	if want("table", "5") {
		did = true
		run("Table 5 (memcached key events)", func() error { return report.Table5(out, o) })
	}
	if want("table", "6") {
		did = true
		run("Table 6 (real-world races)", func() error { return report.Table6(out, o) })
	}
	if want("table", "ilu") {
		did = true
		run("§3.1 ILU share", func() error { return report.ILUShare(out, o) })
	}
	if want("figure", "5") {
		did = true
		run("Figure 5 (scalability)", func() error { return report.Figure5(out, o) })
	}
	if want("sweep", "nginx") {
		did = true
		run("§7.2 NGINX file-size sweep", func() error { return report.NginxSweep(out, o) })
	}
	if *chaos {
		did = true
		run("Chaos (fault-injection soak)", func() error { return report.Chaos(out, o) })
	}
	if *daemon {
		did = true
		run("Daemon (kardd crash/recover smoke)", func() error { return report.Daemon(out, o) })
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
	// Wall clock goes to stderr: the table output must stay byte-identical
	// across -jobs values and cache states so reproductions diff cleanly.
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Second))

	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteChrome(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote trace to %s (trace id %016x, dropped %d)\n",
			*traceOut, tracer.TraceID(), tracer.Dropped())
		if tracer.Dropped() > 0 {
			fmt.Fprintln(os.Stderr, "kardbench: the trace spool was full: the export is clipped and not reproducible; lower -scale")
		}
	}

	// The metrics snapshot is diagnostic, never part of the table output,
	// so it goes to its own file (or stderr with -metrics -).
	if *metrics != "" {
		w := io.Writer(os.Stderr)
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := obs.DefaultRegistry.WritePrometheus(w); err != nil {
			fatal(err)
		}
	}
}

// validate exits with a usage message when a selector flag carries an
// unknown value, instead of silently running nothing under it.
func validate(kind, value string) {
	if value == "" || known[kind][value] {
		return
	}
	valid := make([]string, 0, len(known[kind]))
	for v := range known[kind] {
		valid = append(valid, v)
	}
	sort.Strings(valid)
	fmt.Fprintf(os.Stderr, "kardbench: unknown -%s value %q (valid: %s)\n",
		kind, value, strings.Join(valid, ", "))
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kardbench:", err)
	os.Exit(1)
}
