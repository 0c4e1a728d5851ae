// Command kardtrace runs one workload cell with structured tracing on and
// renders the cell's Chrome trace export as a text log, one line per
// event in the order the engine executed them: thread spawn/join/exit,
// lock/unlock, barriers, malloc/free, batch drains, and race reports.
// Use it to debug a detector or a workload model.
//
// Usage:
//
//	kardtrace -w aget -n 200              # first 200 events under Kard
//	kardtrace -w pigz -d baseline -n 50
//
// The trace records at sync points only, never per access, so the log
// has no per-access lines. Timestamps are virtual cycles on the trace's
// timeline: each event carries its thread's clock, lifted just past the
// previous event's when it would go backwards. The same seed prints the
// same bytes. For a trace of a whole campaign, loadable in Perfetto, use
// `kardbench -trace` instead.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"kard/internal/harness"
	"kard/internal/trace"
)

func main() {
	var (
		name    = flag.String("w", "", "workload to trace")
		det     = flag.String("d", "kard", "configuration: baseline, alloc, kard, tsan, lockset")
		threads = flag.Int("threads", 4, "worker threads")
		scale   = flag.Float64("scale", 0.02, "critical-section entry scale in (0,1]; other values mean 1")
		seed    = flag.Int64("seed", 1, "deterministic scheduler seed")
		limit   = flag.Int("n", 500, "maximum events to print (0 = unlimited)")
	)
	flag.Parse()
	if *name == "" {
		flag.Usage()
		os.Exit(2)
	}
	o := harness.Options{Workload: *name, Mode: harness.Mode(*det), Threads: *threads,
		Scale: *scale, Seed: *seed}
	if err := run(os.Stdout, o, *limit); err != nil {
		fmt.Fprintln(os.Stderr, "kardtrace:", err)
		os.Exit(1)
	}
}

// run executes one traced cell and writes its rendered log to w: at most
// limit event lines (0 = all), then a summary line.
func run(w io.Writer, o harness.Options, limit int) error {
	tracer := trace.NewTracer(o.Seed, "kardtrace", 0)
	o.Trace = tracer.Track(1, 1, "cell", 0)
	r, err := harness.Run(o)
	if err != nil {
		return err
	}
	var export bytes.Buffer
	if err := tracer.WriteChrome(&export); err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(&export)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("decoding the trace export: %w", err)
	}

	out := bufio.NewWriter(w)
	n := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if n++; limit > 0 && n > limit {
			fmt.Fprintf(out, "... (trace limit %d reached)\n", limit)
			break
		}
		fmt.Fprintln(out, line(ev.Name, ev.Ph, ev.Ts, ev.Args))
	}
	fmt.Fprintf(out, "\n%d race record(s); exec %.4fs simulated over %d threads\n",
		len(r.Stats.Races), r.Stats.ExecSeconds(), r.Stats.Threads)
	if d := tracer.Dropped(); d > 0 {
		fmt.Fprintf(out, "%d trace events dropped (spool budget)\n", d)
	}
	return out.Flush()
}

// line renders one event: timestamp, acting thread (when the event names
// one), name (spans suffixed begin/end), and the remaining arguments in
// key order. Span IDs are left out: they identify spans but say nothing
// a reader of the log needs. Numbers decode as json.Number, so they
// print exactly as exported.
func line(name, ph string, ts int64, args map[string]any) string {
	thread := ""
	if t, ok := args["thread"]; ok {
		thread = fmt.Sprint("t", t)
	}
	switch ph {
	case "B":
		name += " begin"
	case "E":
		name += " end"
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		if k != "thread" && k != "span" && k != "parent" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "[%12d] %-4s %s", ts, thread, name)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, args[k])
	}
	return b.String()
}
