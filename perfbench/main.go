// Command perfbench is the repository's end-to-end benchmark. It drives
// the three paths users reach this reproduction through — the Table 3
// campaign (kardbench -table 3), a kardd verdict over HTTP, and a kardd
// -cluster campaign — through the program's own packages, checks their
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 228, "failed": 0, "metrics": {"campaign_s": {"value": 8.41, "unit": "s"}, ...}}
//
// With -trace 0 it reports the end-to-end metrics of an untraced run;
// with -trace 1 the per-layer metrics of a separate traced run, plus a
// breakdown table whose rows sum to the traced wall time and a Chrome
// trace export validated by metricscheck. README.md lists every metric.
//
// Usage (from the repository root; run.sh builds and passes -workdir and
// -metricscheck):
//
//	bash perfbench/run.sh --workload table3 --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload table3,kardd,cluster --seed 1 --seconds 40 --trace 1
//
// Each workload of a list runs in a child process of its own. A failed
// output check prints "correct": false and exits 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kard/internal/workload"
)

// defaultSeed is the seed runs use unless told otherwise. README.md
// names a held-out seed kept for confirming later claims.
const defaultSeed = 1

// config sizes a run. defaultConfig is what the command line runs; the
// benchmark's own test shrinks it.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string // every file the run writes lives under it
	state   string // a workload's sessions, campaigns and probes, removed when it ends
	checker string // metricscheck binary validating span exports
	self    string // this executable, re-run for set-up probes and workload lists
	lanes   int    // matrix workers, kardd clients and cluster workers
	probes  int    // set-up repetitions behind setup_s
	out     io.Writer

	t3Scale float64 // Table 3 scale

	kdApps  []string // apps fresh kardd jobs cycle through
	kdScale float64
	kdPairs int // fresh+hit job pairs per client in one session

	clApps  []string // cluster campaign apps × 4 modes × clSeeds seeds
	clSeeds int
	clScale float64

	// races is the number of distinct racy objects every Kard cell of an
	// app must report: the paper's Table 6 counts.
	races map[string]int
}

func defaultConfig() *config {
	c := &config{
		seed:    defaultSeed,
		seconds: 40 * time.Second,
		workdir: ".bench_build",
		lanes:   runtime.NumCPU(),
		probes:  31,
		out:     os.Stdout,
		t3Scale: 0.02,
		kdApps:  []string{"aget", "memcached", "pigz"},
		kdScale: 0.01,
		kdPairs: 60,
		clApps:  []string{"aget", "memcached", "pigz", "lu_cb", "lu_ncb", "x264"},
		clSeeds: 8,
		clScale: 0.05,
		races:   map[string]int{},
	}
	for _, app := range []string{"aget", "memcached", "nginx", "pigz"} {
		w, err := workload.New(app)
		if err != nil {
			panic(err)
		}
		c.races[app] = w.Spec().KnownRaces
	}
	return c
}

// rng returns the generator of one workload's inputs: the seed argument
// alone determines every input a workload hands the program.
func (c *config) rng(workload string) *rand.Rand {
	var h int64 = 1469598103934665603
	for _, b := range []byte(workload) {
		h = (h ^ int64(b)) * 1099511628211
	}
	return rand.New(rand.NewSource(c.seed ^ h))
}

// outcome is one workload's result.
type outcome struct {
	attempted, failed int
	errs              []string // failed output checks
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// run executes one workload, untraced or traced.
func run(cfg *config, name string) (*outcome, error) {
	switch name {
	case "table3":
		if cfg.trace {
			return table3Traced(cfg)
		}
		return table3Untraced(cfg)
	case "kardd":
		if cfg.trace {
			return karddTraced(cfg)
		}
		return karddUntraced(cfg)
	case "cluster":
		if cfg.trace {
			return clusterTraced(cfg)
		}
		return clusterUntraced(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want table3, kardd or cluster)", name)
}

// setUp performs a workload's set-up — everything between process start
// and its first timed operation — and returns the teardown. kardbench
// -table 3 does no set-up beyond resolving its applications, so on
// table3 the probe measures starting the process.
func setUp(cfg *config, name string) (func(), error) {
	switch name {
	case "table3":
		if len(table3Apps()) == 0 {
			return nil, fmt.Errorf("no Table 3 applications registered")
		}
		return func() {}, nil
	case "kardd":
		dir, err := os.MkdirTemp(cfg.workdir, "probe-kardd-")
		if err != nil {
			return nil, err
		}
		k, err := openKardd(dir)
		if err != nil {
			return nil, err
		}
		return k.close, nil
	case "cluster":
		dir, err := os.MkdirTemp(cfg.workdir, "probe-cluster-")
		if err != nil {
			return nil, err
		}
		specs, err := clusterSpecs(cfg)
		if err != nil {
			return nil, err
		}
		c, err := openCluster(cfg, dir, specs, nil)
		if err != nil {
			return nil, err
		}
		return c.close, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// timeSetup returns the median of cfg.probes set-ups of the named
// workload, taking half of them before measure runs and half after, so
// setup_s samples the host's file-system and scheduling latency at both
// ends of the run rather than at one moment. Each probe starts this
// executable afresh and times process start to "ready", so package
// initialisation counts.
func timeSetup(cfg *config, name string, measure func() error) (float64, error) {
	var xs []float64
	for i := 0; i < cfg.probes; i++ {
		if i == cfg.probes/2 {
			if err := measure(); err != nil {
				return 0, err
			}
		}
		d, err := probe(cfg, name)
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

func probe(cfg *config, name string) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, cfg.self, "--setup-probe", name, "--workdir", cfg.state,
		"--seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t)
	_, _ = io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("set-up probe answered %q (%v)", line, rerr)
	}
	return d, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// reported lists the metrics the final JSON line carries in this mode.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload in this process and assembles its result.
func runOne(cfg *config, name string) (resultOut, error) {
	res := resultOut{Correct: true, Metrics: map[string]metricOut{}}
	state, err := os.MkdirTemp(cfg.workdir, name+"-")
	if err != nil {
		return res, err
	}
	c := *cfg
	c.state = state
	o, err := run(&c, name)
	if rerr := removeState(state); err == nil {
		err = rerr
	}
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	for i, e := range o.errs {
		res.Correct = false
		if i == 10 {
			fmt.Fprintf(cfg.out, "# %s: ... %d more failed checks\n", name, len(o.errs)-i)
			break
		}
		fmt.Fprintf(cfg.out, "# %s: CHECK FAILED: %s\n", name, e)
	}
	for _, d := range reported(cfg.trace) {
		v, ok := o.metrics[d.name]
		if !ok && !cfg.trace {
			return res, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(cfg.out, "# %-9s %-32s %14.6g %s\n", name, d.name, v, d.unit)
	}
	if !cfg.trace {
		// An untraced run also prints the per-layer metrics it
		// measured (job latencies, the simulator's error).
		for _, d := range perLayer {
			if v, ok := o.metrics[d.name]; ok {
				fmt.Fprintf(cfg.out, "# %-9s %-32s %14.6g %s (per-layer)\n", name, d.name, v, d.unit)
			}
		}
	}
	return res, nil
}

// removeState deletes a workload's state directory once the workload has
// ended, and syncs its parent. Sessions, campaigns and set-up probes keep
// their directories until then: on a file system that discards freed
// blocks when it commits, removing one would add that work to the next
// fsync, which is the program's. The sync commits the removal here, not
// inside the next run.
func removeState(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// runEach runs each workload of a list in a child process of its own, so
// that each starts on a fresh heap and reports its own peak RSS, and
// merges their results, prefixing each metric with "<workload>/".
func runEach(cfg *config, names []string) (resultOut, error) {
	res := resultOut{Correct: true, Metrics: map[string]metricOut{}}
	for _, name := range names {
		r, err := runChild(cfg, name)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, m := range r.Metrics {
			res.Metrics[name+"/"+k] = m
		}
	}
	return res, nil
}

// runChild runs one workload in a fresh process of this executable,
// passing its text lines through and returning its result line. A child
// whose checks failed exits 1 after its result, which is not an error
// here.
func runChild(cfg *config, name string) (resultOut, error) {
	var r resultOut
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(cfg.self, "--workload", name, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64), "--trace", trace,
		"--workdir", cfg.workdir, "--metricscheck", cfg.checker)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	if err := cmd.Start(); err != nil {
		return r, err
	}
	var last string
	br := bufio.NewReader(out)
	for {
		line, rerr := br.ReadString('\n')
		if line != "" {
			if last != "" {
				fmt.Fprint(cfg.out, last)
			}
			last = line
		}
		if rerr != nil {
			break
		}
	}
	werr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		fmt.Fprint(cfg.out, last)
		return r, fmt.Errorf("no result (exit: %v)", werr)
	}
	if werr != nil && r.Correct {
		return r, werr
	}
	return r, nil
}

func main() {
	var (
		workloads = flag.String("workload", "", "comma-separated workloads: table3, kardd, cluster")
		seed      = flag.Int64("seed", defaultSeed, "seed generating every workload input")
		seconds   = flag.Float64("seconds", 40, "how long each workload measures")
		traced    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		workdir   = flag.String("workdir", ".bench_build", "directory for state, temp files and span exports")
		checker   = flag.String("metricscheck", "", "metricscheck binary validating span exports (required)")
		probeName = flag.String("setup-probe", "", "internal: set up the named workload under -workdir, print ready, stop it; the caller removes -workdir")
	)
	flag.Parse()
	cfg := defaultConfig()
	cfg.seed, cfg.workdir, cfg.checker = *seed, *workdir, *checker
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traced == 1
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}

	if *probeName != "" {
		teardown, err := setUp(cfg, *probeName)
		if err != nil {
			fatal(err)
		}
		fmt.Println("ready")
		teardown()
		return
	}
	if *workloads == "" || *checker == "" || (*traced != 0 && *traced != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cfg.self = self

	names := strings.Split(*workloads, ",")
	var res resultOut
	if len(names) == 1 {
		res, err = runOne(cfg, names[0])
	} else {
		res, err = runEach(cfg, names)
	}
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
