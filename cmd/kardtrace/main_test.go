package main

import (
	"bytes"
	"strings"
	"testing"

	"kard/internal/harness"
)

func render(t *testing.T, o harness.Options, limit int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, o, limit); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

var aget = harness.Options{Workload: "aget", Mode: harness.ModeKard, Scale: 0.02, Seed: 1}

// TestSameSeedSameText: the log renders a deterministic export, so the
// same seed prints the same bytes.
func TestSameSeedSameText(t *testing.T) {
	if a, b := render(t, aget, 0), render(t, aget, 0); a != b {
		t.Fatal("two same-seed runs printed different logs")
	}
}

// TestEventLines: the log shows the thread lifecycle, lock operations,
// allocations, and the race. aget frees nothing, so free lines are
// checked on nginx, which churns request objects.
func TestEventLines(t *testing.T) {
	out := render(t, aget, 0)
	for _, want := range []string{
		" t1   lock site=", " t1   unlock mutex=", " t0   spawn child=aget.w0 child_n=1",
		" t0   join joined=1", " t1   exit", " t0   malloc object=", " t0   race site=aget.progress",
		"drain depth=", "run begin", "\n1 race record(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log lacks %q", want)
		}
	}
	nginx := render(t, harness.Options{Workload: "nginx", Mode: harness.ModeKard, Scale: 0.02, Seed: 1}, 0)
	if !strings.Contains(nginx, " free object=nginx.request ") {
		t.Error("nginx log lacks a free line")
	}
}

// TestLimit: -n stops the event lines at the limit and says so; the
// summary line still follows.
func TestLimit(t *testing.T) {
	out := render(t, aget, 10)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 13 || lines[10] != "... (trace limit 10 reached)" {
		t.Fatalf("want 10 events, the limit line, a blank line and the summary; got:\n%s", out)
	}
	if !strings.HasPrefix(lines[12], "1 race record(s)") {
		t.Fatalf("summary line missing: %q", lines[12])
	}
}
