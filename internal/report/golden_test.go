package report

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// goldens lists every kardbench selector at seed 1, with the scale it is
// pinned at and the generator that prints it. Each golden file holds the
// bytes the generator writes, which kardbench prints between its
// "==== title ====" header and a blank line. Table 2 is static; tables
// 1 and 4 are directed scenarios at kardbench's default scale. slow
// marks the two selectors that take seconds (table 3, figure 5; the
// rest take under one together), which a -race build skips.
var goldens = []struct {
	selector string
	file     string
	scale    float64
	slow     bool
	run      func(w io.Writer, o Options) error
}{
	{"-table 1", "table1.txt", 0.2, false, Table1},
	{"-table 2", "table2.txt", 0.2, false, func(w io.Writer, _ Options) error { Table2(w, -1); return nil }},
	{"-table 3 -scale 0.02", "table3.txt", 0.02, true, func(w io.Writer, o Options) error { _, err := Table3(w, o); return err }},
	{"-table 4", "table4.txt", 0.2, false, Table4},
	{"-table 5 -scale 0.05", "table5.txt", 0.05, false, Table5},
	{"-table 6 -scale 0.05", "table6.txt", 0.05, false, Table6},
	{"-table ilu -scale 1", "ilu.txt", 1, false, ILUShare},
	{"-figure 5 -scale 0.02", "figure5.txt", 0.02, true, Figure5},
	{"-sweep nginx -scale 0.05", "nginx.txt", 0.05, false, NginxSweep},
}

// TestGoldens pins the reproduction's printed results: every selector
// must print exactly the bytes under testdata/. The results are virtual
// cycles, so any difference is a change in the simulated model or the
// report, never noise. Run with -update to rewrite the files after an
// intended change, and commit them with it.
func TestGoldens(t *testing.T) {
	for _, g := range goldens {
		if g.slow && raceEnabled && !*update {
			continue
		}
		var out strings.Builder
		o := Options{Threads: 4, Scale: g.scale, Seed: 1, Jobs: 2}
		if err := g.run(&out, o); err != nil {
			t.Fatalf("kardbench %s: %v", g.selector, err)
		}
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("kardbench %s: %v (run go test -run TestGoldens -update to create it)", g.selector, err)
		}
		if line, w, got, ok := firstDiff(string(want), out.String()); !ok {
			t.Errorf("kardbench %s differs from %s at line %d:\nwant: %q\ngot:  %q",
				g.selector, path, line, w, got)
		}
	}
}

// firstDiff compares two outputs line by line and returns the first
// differing line (1-based) with both versions, or ok when they match. A
// missing line reads as "<end of output>".
func firstDiff(want, got string) (line int, w, g string, ok bool) {
	if want == got {
		return 0, "", "", true
	}
	lines := func(s string) []string {
		l := strings.SplitAfter(s, "\n")
		if l[len(l)-1] == "" {
			l = l[:len(l)-1]
		}
		return l
	}
	wl, gl := lines(want), lines(got)
	for i := 0; ; i++ {
		w, g = "<end of output>", "<end of output>"
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return i + 1, w, g, false
		}
	}
}

func TestFirstDiff(t *testing.T) {
	if _, _, _, ok := firstDiff("a\nb\n", "a\nb\n"); !ok {
		t.Error("equal outputs reported as different")
	}
	if line, w, g, ok := firstDiff("a\nb\nc\n", "a\nB\nc\n"); ok || line != 2 || w != "b\n" || g != "B\n" {
		t.Errorf("changed line: got line %d %q %q ok=%v", line, w, g, ok)
	}
	if line, w, g, _ := firstDiff("a\n", "a\nextra\n"); line != 2 || w != "<end of output>" || g != "extra\n" {
		t.Errorf("extra line: got line %d %q %q", line, w, g)
	}
	if line, w, g, _ := firstDiff("a\n", "a"); line != 1 || w != "a\n" || g != "a" {
		t.Errorf("missing newline: got line %d %q %q", line, w, g)
	}
}
