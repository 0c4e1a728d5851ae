// Command kardrace runs one application model under a chosen detector and
// prints the data races it reports, the way a developer would run the real
// Kard tool over a test workload.
//
// Usage:
//
//	kardrace -w memcached                 # Kard over the memcached model
//	kardrace -w aget -d tsan              # the happens-before comparator
//	kardrace -w pigz -d lockset           # the Eraser-style comparator
//	kardrace -list                        # available workloads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kard/internal/harness"
	"kard/internal/report"
	"kard/internal/sim"
	"kard/internal/workload"
)

// explainRace writes a race's forensic provenance (DESIGN.md §13) to w:
// who touched the object, under which locks, how it moved between
// protection domains, and what the threads synchronized on just before
// detection.
func explainRace(w io.Writer, race sim.Race) {
	p := race.Provenance
	if p == nil {
		fmt.Fprintln(w, "  (no provenance recorded)")
		return
	}
	describe := func(role string, a sim.AccessDesc) {
		name := a.ThreadName
		if name == "" {
			name = fmt.Sprintf("thread %d", a.Thread)
		}
		kind := a.Kind
		if kind == "" {
			kind = "access"
		}
		section := a.Section
		if section == "" {
			section = "(no section)"
		}
		fmt.Fprintf(w, "  %-6s %s by %s at %q in %s\n", role+":", kind, name, a.Site, section)
	}
	describe("first", p.First)
	describe("second", p.Second)
	if len(p.LocksHeld) > 0 {
		fmt.Fprintf(w, "  locks held at detection: %v\n", p.LocksHeld)
	} else {
		fmt.Fprintln(w, "  locks held at detection: none")
	}
	fmt.Fprintf(w, "  detected in batch drain %d\n", p.Drain)
	if len(p.DomainHistory) > 0 {
		fmt.Fprintln(w, "  protection-domain history (oldest first):")
		for _, d := range p.DomainHistory {
			if d.Key > 0 {
				fmt.Fprintf(w, "    t=%-8d %s (pkey %d)\n", d.Time, d.Domain, d.Key)
			} else {
				fmt.Fprintf(w, "    t=%-8d %s\n", d.Time, d.Domain)
			}
		}
	}
	if len(p.SyncEdges) > 0 {
		fmt.Fprintln(w, "  recent synchronization edges (oldest first):")
		for _, s := range p.SyncEdges {
			switch {
			case s.Label != "":
				fmt.Fprintf(w, "    t=%-8d %s by thread %d (%s)\n", s.Time, s.Kind, s.Thread, s.Label)
			case s.Other >= 0:
				fmt.Fprintf(w, "    t=%-8d %s by thread %d (peer %d)\n", s.Time, s.Kind, s.Thread, s.Other)
			default:
				fmt.Fprintf(w, "    t=%-8d %s by thread %d\n", s.Time, s.Kind, s.Thread)
			}
		}
	}
}

func main() {
	var (
		name    = flag.String("w", "", "workload to run (see -list)")
		det     = flag.String("d", "kard", "detector: kard, tsan, lockset, baseline, alloc")
		threads = flag.Int("threads", 4, "worker threads")
		scale   = flag.Float64("scale", 0.2, "critical-section entry scale in (0,1]")
		seed    = flag.Int64("seed", 1, "deterministic scheduler seed")
		list    = flag.Bool("list", false, "list available workloads")
		catalog = flag.Bool("catalog", false, "run the race-pattern catalog under all detectors")
		stats   = flag.Bool("stats", false, "also print run statistics")
		explain = flag.Bool("explain", false, "print each race's forensic provenance: the access pair, locks held, the object's protection-domain history, and recent synchronization edges")
	)
	flag.Parse()

	if *catalog {
		if err := report.Catalog(os.Stdout, report.Options{Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "kardrace:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, suite := range workload.Suites() {
			fmt.Printf("%s:\n", suite)
			for _, n := range workload.BySuite(suite) {
				w, _ := workload.New(n)
				s := w.Spec()
				fmt.Printf("  %-15s %d sharable objects, %d critical sections, %d entries\n",
					n, s.HeapObjects+s.GlobalObjects, s.TotalCS, s.CSEntries)
			}
		}
		return
	}
	if *name == "" {
		flag.Usage()
		os.Exit(2)
	}

	r, err := harness.Run(harness.Options{
		Workload: *name, Mode: harness.Mode(*det),
		Threads: *threads, Scale: *scale, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kardrace:", err)
		os.Exit(1)
	}

	races := r.Stats.Races
	if len(races) == 0 {
		fmt.Printf("%s: no data races reported by %s\n", *name, r.Stats.Detector)
	} else {
		fmt.Printf("%s: %d potential data race record(s) from %s (%d distinct objects)\n\n",
			*name, len(races), r.Stats.Detector, harness.DistinctRacyObjects(r))
		for i, race := range races {
			fmt.Printf("race #%d on %s\n", i+1, race.Object)
			fmt.Printf("  %s of %d byte(s) at offset %d\n", race.Kind, 8, race.Offset)
			fmt.Printf("  thread %d at %q in section %q\n", race.Thread, race.Site, race.Section)
			fmt.Printf("  conflicts with thread %d in section %q\n", race.OtherThread, race.OtherSection)
			fmt.Printf("  inconsistent lock usage: %v; virtual time %d\n", race.ILU, race.Time)
			if *explain {
				explainRace(os.Stdout, race)
			}
			fmt.Println()
		}
	}
	if r.HasKard {
		c := r.Kard
		fmt.Printf("kard: %d faults (%d identification, %d migration, %d race), %d recycling, %d sharing,\n",
			c.Faults, c.IdentificationFaults, c.MigrationFaults, c.RaceFaults,
			c.KeyRecyclingEvents, c.KeySharingEvents)
		fmt.Printf("      %d read-only and %d read-write shared objects, %d spurious reports pruned\n",
			c.SharedRO, c.SharedRWEver, c.PrunedSpurious)
	}
	if *stats {
		s := r.Stats
		fmt.Printf("\nstats: exec %.4fs simulated, %d threads, peak RSS %.1f MiB,\n",
			s.ExecSeconds(), s.Threads, float64(s.PeakRSS)/(1<<20))
		fmt.Printf("       %d sections (%d max concurrent), %d entries, dTLB miss rate %.6f\n",
			s.TotalSections, s.MaxConcurrentSections, s.CSEntries, s.DTLBMissRate())
	}
}
