package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks every workload so the whole suite runs in about a
// minute. Set-up probes re-run the benchmark binary, as a real run does.
func tinyConfig(t *testing.T, out *bytes.Buffer) *config {
	cfg := defaultConfig()
	cfg.workdir = t.TempDir()
	cfg.seconds = 2 * time.Second
	cfg.probes = 2
	cfg.out = out
	cfg.lanes = 2
	cfg.t3Scale = 0.01
	cfg.kdApps = []string{"aget", "pigz"}
	cfg.clApps = []string{"aget", "pigz"}
	cfg.clSeeds = 2
	cfg.self, cfg.checker = selfBin, checkerBin
	return cfg
}

// selfBin and checkerBin are the benchmark and the repository's trace
// validator, built by TestMain as run.sh builds them.
var selfBin, checkerBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	selfBin, checkerBin = filepath.Join(dir, "perfbench"), filepath.Join(dir, "metricscheck")
	code := 0
	for _, b := range [][2]string{{selfBin, "."}, {checkerBin, "kard/cmd/metricscheck"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", b[1], err, out)
			code = 1
		}
	}
	if code == 0 {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestWorkloadsTiny(t *testing.T) {
	for _, name := range []string{"table3", "kardd", "cluster"} {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			cfg := tinyConfig(t, &out)
			cfg.trace = traced
			res, err := runOne(cfg, name)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, traced,
					res.Correct, res.Attempted, res.Failed, out.String())
			}
			for _, d := range reported(traced) {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %q: %+v", name, traced, d.name, d.unit, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.name, m.Value)
				}
			}
			if traced {
				checkBreakdownSums(t, name, out.String())
			}
		}
	}
}

// checkBreakdownSums parses the printed breakdown: rows plus unattributed
// must equal the traced wall time, and unattributed must not be
// meaningfully negative.
func checkBreakdownSums(t *testing.T, name, out string) {
	t.Helper()
	var rows, unattributed, sum, wall float64
	found := false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(strings.TrimPrefix(sc.Text(), "#"))
		if len(f) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch {
		case f[0] == "sum" && len(f) == 4:
			sum = v
			wall, _ = strconv.ParseFloat(strings.TrimSuffix(f[3], ")"), 64)
			found = true
		case f[0] == "unattributed":
			unattributed = v
		case strings.Contains(f[0], ".") && strings.HasSuffix(f[len(f)-1], "%"):
			rows += v
		}
	}
	if !found || wall <= 0 {
		t.Fatalf("%s: no breakdown printed\n%s", name, out)
	}
	if d := rows + unattributed - wall; d > 1e-3 || d < -1e-3 || sum-wall > 1e-3 || wall-sum > 1e-3 {
		t.Errorf("%s: rows %.4f + unattributed %.4f != wall %.4f", name, rows, unattributed, wall)
	}
	if unattributed < -1e-3*wall {
		t.Errorf("%s: unattributed %.4f is negative", name, unattributed)
	}
}

// A wrong expectation must fail the run: here Table 6's race count for
// aget is corrupted from 1 to 2.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, name := range []string{"table3", "kardd", "cluster"} {
		var out bytes.Buffer
		cfg := tinyConfig(t, &out)
		cfg.seconds = time.Second
		cfg.kdApps, cfg.clApps, cfg.clSeeds = []string{"aget"}, []string{"aget"}, 1
		cfg.races["aget"] = 2
		res, err := runOne(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || !strings.Contains(out.String(), "Table 6 has 2") {
			t.Errorf("%s: a wrong race count passed the checks\n%s", name, out.String())
		}
	}
}

// A workload list runs each workload in a child process of the built
// binary and prefixes its metrics; each child reports its own peak RSS.
func TestWorkloadList(t *testing.T) {
	cmd := exec.Command(selfBin, "--workload", "kardd,cluster", "--seed", "3", "--seconds", "1", "--trace", "0",
		"--workdir", t.TempDir(), "--metricscheck", checkerBin)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
	}
	if len(res.Metrics) != 2*len(endToEnd) {
		t.Errorf("%d metrics, want %d: %v", len(res.Metrics), 2*len(endToEnd), res.Metrics)
	}
	for _, name := range []string{"kardd", "cluster"} {
		for _, d := range endToEnd {
			if m, ok := res.Metrics[name+"/"+d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("metric %s/%s missing, without unit %q or not > 0: %+v", name, d.name, d.unit, m)
			}
		}
	}
	if a, b := res.Metrics["kardd/peak_rss_mb"].Value, res.Metrics["cluster/peak_rss_mb"].Value; a == b {
		t.Errorf("kardd and cluster report the same peak RSS %v: not measured per process", a)
	}
}

// BENCHMARK.json must describe exactly the metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "table3,kardd,cluster" {
		t.Errorf("BENCHMARK.json workloads %v, want table3, kardd, cluster", names)
	}
}
