package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"time"

	"kard/internal/core"
	"kard/internal/harness"
	"kard/internal/hb"
	"kard/internal/report"
	"kard/internal/sim"
	"kard/internal/workload"
)

// appModes are Table 3's four configurations, in column order.
var appModes = []harness.Mode{harness.ModeBaseline, harness.ModeAlloc, harness.ModeKard, harness.ModeTSan}

// table3Apps lists the 19 applications in Table 3's order.
func table3Apps() []string {
	var names []string
	for _, suite := range []string{"PARSEC", "SPLASH-2x", "real-world"} {
		names = append(names, workload.BySuite(suite)...)
	}
	return names
}

func table3Options(cfg *config) report.Options {
	return report.Options{Threads: 4, Scale: cfg.t3Scale, Seed: 1 + cfg.rng("table3").Int63n(1_000_000), Jobs: cfg.lanes}
}

// table3Campaign runs the kardbench -table 3 path once.
func table3Campaign(cfg *config) ([]*report.AppResult, time.Duration, error) {
	t := time.Now()
	apps, err := report.Table3(io.Discard, table3Options(cfg))
	return apps, time.Since(t), err
}

func table3Untraced(cfg *config) (*outcome, error) {
	o := newOutcome()
	cells := len(appModes) * len(table3Apps())
	var walls []float64
	var first []*report.AppResult
	setup, err := timeSetup(cfg, "table3", func() error {
		start := time.Now()
		for another(start, cfg.seconds, walls) {
			apps, d, err := table3Campaign(cfg)
			o.attempted += cells
			if err != nil {
				o.failed += cells
				o.fail("Table 3 campaign: %v", err)
				break
			}
			walls = append(walls, d.Seconds())
			if first == nil {
				first = apps
				checkTable3(cfg, o, apps)
			} else if a, b := fingerprint(first), fingerprint(apps); a != b {
				o.fail("Table 3 campaign %d differs from the first: %s vs %s", len(walls), b, a)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	o.metrics["campaign_s"] = median(walls)
	o.metrics["ok_ratio"] = ratio(float64(o.attempted-o.failed), float64(o.attempted))
	o.metrics["peak_rss_mb"] = peakRSSMiB()
	fmt.Fprintf(cfg.out, "# table3: %d campaigns of %d cells, scale %.3g, seed %d, %d jobs; campaign_s samples %v\n",
		len(walls), cells, cfg.t3Scale, table3Options(cfg).Seed, cfg.lanes, walls)
	if first != nil {
		errPcts(o, first)
	}
	return o, nil
}

// fingerprint condenses a campaign's simulated results, so repeated
// campaigns can be checked for determinism.
func fingerprint(apps []*report.AppResult) string {
	s := ""
	for _, a := range apps {
		for _, r := range []*harness.Result{a.Baseline, a.Alloc, a.Kard, a.TSan} {
			s += fmt.Sprintf("%d/%d/%d ", r.Stats.ExecTime, r.Stats.PeakRSS, len(r.Stats.Races))
		}
	}
	return s
}

// checkTable3 applies the output checks: every Kard cell of the Table 6
// applications reports the paper's number of distinct racy objects, and
// each application orders Baseline ≤ Alloc ≤ Kard < TSan in virtual
// cycles.
func checkTable3(cfg *config, o *outcome, apps []*report.AppResult) {
	for _, a := range apps {
		if want, ok := cfg.races[a.Spec.Name]; ok {
			if got := harness.DistinctRacyObjects(a.Kard); got != want {
				o.fail("%s: Kard reports %d distinct racy objects, Table 6 has %d", a.Spec.Name, got, want)
			}
		}
		b, al, k, t := a.Baseline.Stats.ExecTime, a.Alloc.Stats.ExecTime, a.Kard.Stats.ExecTime, a.TSan.Stats.ExecTime
		if !(b <= al && al <= k && k < t) {
			o.fail("%s: virtual cycles not Baseline ≤ Alloc ≤ Kard < TSan: %d %d %d %d", a.Spec.Name, b, al, k, t)
		}
	}
}

// errPcts reports the simulator's error against the paper: over the
// applications, the geometric mean of |ln(r_sim / r_paper)| with
// r = 1 + overhead/100, as a percentage.
func errPcts(o *outcome, apps []*report.AppResult) {
	geo := func(sim, paper func(*report.AppResult) float64) float64 {
		var s float64
		for _, a := range apps {
			s += math.Abs(math.Log((1 + sim(a)/100) / (1 + paper(a)/100)))
		}
		return (math.Exp(s/float64(len(apps))) - 1) * 100
	}
	o.metrics["sim.kard_ovh_err_pct"] = geo((*report.AppResult).KardPct, func(a *report.AppResult) float64 { return a.Spec.PaperKardPct })
	o.metrics["sim.alloc_ovh_err_pct"] = geo((*report.AppResult).AllocPct, func(a *report.AppResult) float64 { return a.Spec.PaperAllocPct })
	o.metrics["sim.kard_mem_err_pct"] = geo((*report.AppResult).MemPct, func(a *report.AppResult) float64 { return a.Spec.PaperMemPct })
	o.metrics["sim.tsan_ovh_err_pct"] = geo((*report.AppResult).TSanPct, func(a *report.AppResult) float64 { return a.Spec.PaperTSanPct })
}

// tracedCell is one cell of the traced campaign.
type tracedCell struct {
	app       string
	mode      harness.Mode
	stats     *sim.Stats
	summary   sim.Summary
	counts    core.Counts
	execMode  string
	err       error
	cell, run time.Duration
	prepare   time.Duration
	hook      time.Duration
}

// runTracedCell assembles a cell from the same public calls
// harness.RunWorkload makes, timing each on the recorder.
func runTracedCell(rec *recorder, lane int, app string, mode harness.Mode, ro report.Options) *tracedCell {
	c := &tracedCell{app: app, mode: mode}
	cs := rec.now()
	w, err := workload.New(app)
	if err != nil {
		c.err = err
		return c
	}
	sn := rec.now()
	scfg := sim.Config{Seed: ro.Seed}
	var e *sim.Engine
	var det *timedDetector
	var kd *core.Detector
	hook := ""
	switch mode {
	case harness.ModeBaseline:
		e = sim.New(scfg, nil)
	case harness.ModeAlloc:
		scfg.UniquePageAllocator = true
		e = sim.New(scfg, nil)
	case harness.ModeKard:
		scfg.UniquePageAllocator = true
		kd = core.New(core.Options{})
		det, hook = newTimedDetector(kd), "core.hook"
		e = sim.New(scfg, det)
	case harness.ModeTSan:
		det, hook = newTimedDetector(hb.New(hb.Options{})), "hb.hook"
		e = sim.New(scfg, det)
	}
	se := rec.now()
	w.Prepare(e)
	pe := rec.now()
	c.stats, c.err = e.Run(func(m *sim.Thread) { w.Body(m, ro.Threads, ro.Scale) })
	re := rec.now()
	c.summary, c.execMode = e.Summary(), e.ExecMode()
	if kd != nil {
		c.counts = kd.Counters()
	}
	ce := rec.now()

	cell := rec.add(lane, -1, "harness.cell", cs, ce)
	rec.add(lane, cell, "sim.new", sn, se)
	rec.add(lane, cell, "workload.prepare", se, pe)
	run := rec.add(lane, cell, "sim.run", pe, re)
	c.cell, c.prepare, c.run = ce-cs, pe-se, re-pe
	if det != nil {
		// Hook time is an extrapolated total, not one interval; the
		// export draws it as a child at the start of its run span.
		c.hook = min(det.hookTime(), c.run)
		rec.add(lane, run, hook, pe, pe+c.hook)
	}
	return c
}

func table3Traced(cfg *config) (*outcome, error) {
	o := newOutcome()
	twins, untraced, err := table3Campaign(cfg)
	o.attempted += len(appModes) * len(table3Apps())
	if err != nil {
		o.failed = o.attempted
		o.fail("untraced Table 3 campaign: %v", err)
		return o, nil
	}
	checkTable3(cfg, o, twins)
	errPcts(o, twins)

	ro := table3Options(cfg)
	type job struct {
		i    int
		app  string
		mode harness.Mode
	}
	var jobs []job
	for _, a := range twins {
		for _, m := range appModes {
			jobs = append(jobs, job{len(jobs), a.Spec.Name, m})
		}
	}
	o.attempted += len(jobs)
	cells := make([]*tracedCell, len(jobs))
	rec := newRecorder()
	before := snapshot()
	t0 := rec.now()
	next := make(chan job)
	var wg sync.WaitGroup
	for lane := 0; lane < cfg.lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for j := range next {
				cells[j.i] = runTracedCell(rec, lane, j.app, j.mode, ro)
			}
		}(lane)
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	wall := rec.now() - t0
	d := snapshot().sub(before)

	m := o.metrics
	var cellSum, runSum, hooks time.Duration
	for i, c := range cells {
		twin := twins[i/len(appModes)]
		want := []*harness.Result{twin.Baseline, twin.Alloc, twin.Kard, twin.TSan}[i%len(appModes)]
		label := fmt.Sprintf("%s/%s", c.app, c.mode)
		switch {
		case c.err != nil:
			o.failed++
			o.fail("traced cell %s: %v", label, c.err)
			continue
		case c.execMode != sim.ExecModeParallel:
			o.fail("traced cell %s ran in exec mode %q, not the default parallel path", label, c.execMode)
		case !reflect.DeepEqual(c.stats, want.Stats) || c.summary != want.Summary || c.counts != want.Kard:
			o.fail("traced cell %s: Stats differ from its untraced twin", label)
		}
		m["harness.cell_s."+string(c.mode)] += c.cell.Seconds()
		m["workload.prepare_s"] += c.prepare.Seconds()
		m["sim.ops"] += float64(c.summary.Ops)
		m["core.faults"] += float64(c.counts.Faults)
		m["core.key_recycles"] += float64(c.counts.KeyRecyclingEvents)
		m["core.key_sharing"] += float64(c.counts.KeySharingEvents)
		m["core.pruned"] += float64(c.counts.PrunedSpurious + c.counts.PrunedRedundant)
		if c.mode == harness.ModeKard {
			m["core.hook_s"] += c.hook.Seconds()
		} else if c.mode == harness.ModeTSan {
			m["hb.hook_s"] += c.hook.Seconds()
		}
		cellSum += c.cell
		runSum += c.run
		hooks += c.hook
	}
	m["harness.idle_share"] = 1 - ratio(cellSum.Seconds(), float64(cfg.lanes)*wall.Seconds())
	m["sim.run_s"] = runSum.Seconds()
	m["sim.self_s"] = (runSum - hooks).Seconds()
	m["sim.ns_per_op"] = ratio(float64(runSum.Nanoseconds()), m["sim.ops"])
	layerCounts(m, d)
	m["bench.trace_overhead_pct"] = (ratio(wall.Seconds(), untraced.Seconds()) - 1) * 100
	return o, finishTrace(cfg, o, rec, "table3", wall, cfg.lanes)
}

// finishTrace folds the traced run into its breakdown, prints it, checks
// it, and exports and validates the spans.
func finishTrace(cfg *config, o *outcome, rec *recorder, name string, wall time.Duration, lanes int) error {
	b := rec.fold(wall, lanes)
	b.write(cfg.out, name)
	if err := b.check(); err != nil {
		o.fail("%v", err)
	}
	o.metrics["bench.unattributed_share"] = ratio(b.unattributed, b.wall)
	path, err := rec.export(cfg.workdir, name, cfg.seed)
	if err != nil {
		return err
	}
	if err := validate(cfg.checker, path); err != nil {
		o.fail("%v", err)
	}
	fmt.Fprintf(cfg.out, "# %s: span export %s\n", name, path)
	return nil
}
