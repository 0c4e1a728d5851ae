package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"kard/internal/harness"
	"kard/internal/service"
)

// Completion is observed by polling GET /jobs/{id}. The interval grows
// with the time already waited (an eighth of it, between pollMin and
// pollMax), so it stays well under a hit job's latency without the polls
// loading the cores during a long fresh job.
const (
	pollMin = 250 * time.Microsecond
	pollMax = 5 * time.Millisecond
)

// jobModes are the modes of every kardd job, one cell each.
var jobModes = []harness.Mode{harness.ModeKard, harness.ModeTSan, harness.ModeLockset}

// jobTimeout fails a job whose verdict has not arrived, well inside the
// run's time limit.
const jobTimeout = time.Minute

// kardd is an in-process detection service with kardd's default settings
// over a real, fsync'd journal, served on a loopback listener.
type kardd struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	hc     *http.Client
}

func openKardd(dir string) (*kardd, error) {
	srv, err := service.Open(service.Config{Dir: dir, QueueDepth: 64, Workers: 2,
		Defaults: service.ServerDefaults{CellTimeout: 2 * time.Minute}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	k := &kardd{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
	go func() {
		defer close(k.served)
		_ = k.hs.Serve(ln)
	}()
	resp, err := k.hc.Get(k.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("kardd /healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		k.close()
		return nil, err
	}
	return k, nil
}

func (k *kardd) close() {
	_ = k.hs.Close()
	<-k.served
	k.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = k.srv.Drain(ctx)
}

// jobResult is one job's client-side view.
type jobResult struct {
	rejected                   bool
	failed                     string // a job that settled as failed
	submit, wait, fetch, total time.Duration
	polls                      int
	verdict                    *service.JobVerdict
	cells                      []byte // the verdict's cells as JobVerdict.Canonical renders them
}

// job submits spec and polls until its verdict is fetched. With a
// recorder it records the job's spans on lane.
func (k *kardd) job(spec service.JobSpec, rec *recorder, lane int) (*jobResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	r := &jobResult{}
	type iv struct {
		name       string
		start, end time.Duration
	}
	var spans []iv
	t0 := time.Now()
	clock := func() time.Duration { return time.Since(t0) }
	resp, err := k.hc.Post(k.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.submit = clock()
	spans = append(spans, iv{"service.submit", 0, r.submit})
	if resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			r.rejected = true
			return r, nil
		}
		return nil, fmt.Errorf("POST /jobs %s answered %s", spec.ID, resp.Status)
	}
	for {
		time.Sleep(min(max(clock()/8, pollMin), pollMax))
		ps := clock()
		st, err := k.status(spec.ID)
		if err != nil {
			return nil, err
		}
		pe := clock()
		if st.State == service.StateQueued || st.State == service.StateRunning {
			if pe > jobTimeout {
				return nil, fmt.Errorf("job %s: no verdict after %v", spec.ID, jobTimeout)
			}
			r.polls++
			spans = append(spans, iv{"service.poll", ps, pe})
			continue
		}
		r.wait, r.fetch, r.total = ps-r.submit, pe-ps, pe
		spans = append(spans, iv{"service.fetch", ps, pe})
		if st.State != service.StateDone || st.Verdict == nil {
			r.failed = fmt.Sprintf("%s: %s", st.State, st.Error)
			break
		}
		// A hit job repeats a fresh job's cells under another ID, so the
		// ID is left out of the bytes the two are compared by.
		r.verdict, r.cells = st.Verdict, (&service.JobVerdict{Cells: st.Verdict.Cells}).Canonical()
		break
	}
	if rec != nil {
		base := t0.Sub(rec.t0)
		root := rec.add(lane, -1, "service.job", base, base+r.total)
		for _, s := range spans {
			rec.add(lane, root, s.name, base+s.start, base+s.end)
		}
	}
	return r, nil
}

func (k *kardd) status(id string) (*service.JobStatus, error) {
	resp, err := k.hc.Get(k.base + "/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s answered %s", id, resp.Status)
	}
	var st service.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// loadStats aggregates one closed-loop phase.
type loadStats struct {
	mu                         sync.Mutex
	fresh, hit                 []float64 // seconds
	submit, wait, fetch        []float64
	polls                      []float64
	attempted, failed, rejects int
	completed                  int
	ops                        float64
	errs                       []string
	first, last                time.Time
	walBytes, walAppends       int64 // the WAL before its first compaction
}

func (s *loadStats) add(fresh bool, r *jobResult, end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	switch {
	case r.rejected:
		s.failed++
		s.rejects++
		return
	case r.failed != "":
		s.failed++
		s.errs = append(s.errs, "job failed: "+r.failed)
		return
	}
	s.completed++
	if end.After(s.last) {
		s.last = end
	}
	if fresh {
		s.fresh = append(s.fresh, r.total.Seconds())
	} else {
		s.hit = append(s.hit, r.total.Seconds())
	}
	s.submit = append(s.submit, r.submit.Seconds())
	s.wait = append(s.wait, r.wait.Seconds())
	s.fetch = append(s.fetch, r.fetch.Seconds())
	s.polls = append(s.polls, float64(r.polls))
}

func (s *loadStats) fail(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
}

// karddLoad runs cfg.lanes closed-loop clients against k, each for
// cfg.kdPairs pairs of jobs. A client alternates a fresh job — one small
// app × {kard, tsan, lockset} with a cell seed not used before in the
// run, so every cell simulates — and a hit job: a new job ID for the same
// cells, all served from the result cache. Each waits for its verdict
// before submitting the next. A client cycles through the apps from a
// seed-chosen start, so every session runs the same mix: a random pick
// would vary the share of memcached jobs, which cost several times the
// others, from session to session.
func karddLoad(cfg *config, k *kardd, phase string, session int, rec *recorder) *loadStats {
	s := &loadStats{first: time.Now()}
	gen := cfg.rng(fmt.Sprintf("kardd/%s/%d", phase, session))
	seedBase := 1 + gen.Int63n(1<<40)
	var wg sync.WaitGroup
	for c := 0; c < cfg.lanes; c++ {
		first := gen.Intn(len(cfg.kdApps))
		wg.Add(1)
		go func(c, first int) {
			defer wg.Done()
			for n := 0; n < cfg.kdPairs; n++ {
				app := cfg.kdApps[(first+n)%len(cfg.kdApps)]
				spec := service.JobSpec{ID: fmt.Sprintf("%s%d-fresh-%d-%d", phase, session, c, n), Workload: app,
					Modes: jobModes,
					Seeds: []int64{seedBase + int64(n*cfg.lanes+c)}, Scale: cfg.kdScale}
				fr, err := k.job(spec, rec, c)
				if err != nil {
					s.fail("%s: %v", spec.ID, err)
					return
				}
				s.add(true, fr, time.Now())
				if fr.verdict == nil {
					continue
				}
				checkFresh(cfg, s, app, spec.ID, fr.verdict)
				if rec != nil {
					sampleWAL(k, s)
				}
				spec.ID = fmt.Sprintf("%s%d-hit-%d-%d", phase, session, c, n)
				hr, err := k.job(spec, rec, c)
				if err != nil {
					s.fail("%s: %v", spec.ID, err)
					return
				}
				s.add(false, hr, time.Now())
				if hr.verdict != nil && !bytes.Equal(hr.cells, fr.cells) {
					s.fail("%s: cell verdicts differ from the fresh job they repeat", spec.ID)
				}
			}
		}(c, first)
	}
	wg.Wait()
	return s
}

// checkFresh checks a fresh job's verdict: one cell per mode, and every
// Kard cell of a Table 6 application reports the paper's race count.
func checkFresh(cfg *config, s *loadStats, app, id string, v *service.JobVerdict) {
	if len(v.Cells) != len(jobModes) {
		s.fail("%s: verdict has %d cells, want %d", id, len(v.Cells), len(jobModes))
		return
	}
	for _, c := range v.Cells {
		s.mu.Lock()
		s.ops += float64(c.Summary.Ops)
		s.mu.Unlock()
		if want, ok := cfg.races[app]; ok && strings.Contains(c.Label, "/kard/") && c.RacyObjects != want {
			s.fail("%s: %s reports %d distinct racy objects, Table 6 has %d", id, c.Label, c.RacyObjects, want)
		}
	}
}

// sampleWAL records the journal's size per append while it has not yet
// been compacted (compaction truncates the file).
func sampleWAL(k *kardd, s *loadStats) {
	j := k.srv.Stats().Journal
	if j.Compactions > 0 {
		return
	}
	s.mu.Lock()
	if int64(j.Appended) > s.walAppends {
		s.walBytes, s.walAppends = j.Bytes, int64(j.Appended)
	}
	s.mu.Unlock()
}

// phaseStats pools the sessions of one phase.
type phaseStats struct {
	loadStats
	loads []float64           // session load time, first submit to last verdict (s)
	load  time.Duration       // Σ session load time
	srv   service.ServerStats // summed over sessions
}

func (p *phaseStats) merge(s *loadStats, st service.ServerStats) {
	p.fresh = append(p.fresh, s.fresh...)
	p.hit = append(p.hit, s.hit...)
	p.submit = append(p.submit, s.submit...)
	p.wait = append(p.wait, s.wait...)
	p.fetch = append(p.fetch, s.fetch...)
	p.polls = append(p.polls, s.polls...)
	p.attempted += s.attempted
	p.failed += s.failed
	p.completed += s.completed
	p.ops += s.ops
	p.errs = append(p.errs, s.errs...)
	if p.walAppends == 0 {
		p.walBytes, p.walAppends = s.walBytes, s.walAppends
	}
	p.loads = append(p.loads, s.last.Sub(s.first).Seconds())
	p.load += s.last.Sub(s.first)
	p.srv.RejectedSaturated += st.RejectedSaturated
	p.srv.RejectedQuarantined += st.RejectedQuarantined
	p.srv.RejectedDraining += st.RejectedDraining
	p.srv.Journal.Appended += st.Journal.Appended
	p.srv.Journal.Compactions += st.Journal.Compactions
	p.srv.Cache.Hits += st.Cache.Hits
	p.srv.Cache.Misses += st.Cache.Misses
	p.srv.Cache.Writes += st.Cache.Writes
}

// session opens a fresh service in the workload's state directory,
// drives it with one karddLoad and stops it. Fresh jobs use cell seeds new to the
// session, so every cache hit is a hit job's: the result cache must have
// served each hit job's cells, or a broken lookup that recomputes them
// would pass the verdict check and only run slower.
func session(cfg *config, phase string, n int, rec *recorder) (*loadStats, service.ServerStats, error) {
	dir, err := os.MkdirTemp(cfg.state, "kardd-")
	if err != nil {
		return nil, service.ServerStats{}, err
	}
	k, err := openKardd(dir)
	if err != nil {
		return nil, service.ServerStats{}, err
	}
	s := karddLoad(cfg, k, phase, n, rec)
	st := k.srv.Stats()
	k.close()
	if want := uint64(len(jobModes) * len(s.hit)); st.Cache.Hits != want {
		s.fail("session %s%d: the result cache served %d cells, want %d for %d hit jobs", phase, n, st.Cache.Hits, want, len(s.hit))
	}
	return s, st, nil
}

// runPhase runs sessions for dur (at least one). Every session starts a
// fresh daemon and ends when each client has done its pairs, so the
// journal, the cache and the server's job table grow the same way in
// every session and run.
func runPhase(cfg *config, phase string, dur time.Duration, rec *recorder) (*phaseStats, error) {
	p := &phaseStats{}
	start := time.Now()
	var took []float64
	for n := 0; another(start, dur, took); n++ {
		t := time.Now()
		s, st, err := session(cfg, phase, n, rec)
		if err != nil {
			return nil, err
		}
		took = append(took, time.Since(t).Seconds())
		p.merge(s, st)
	}
	return p, nil
}

// warmUp runs one short unmeasured session, so the first measured one
// does not pay for the process's heap growth and first connections.
func warmUp(cfg *config) error {
	w := *cfg
	w.kdPairs = max(1, cfg.kdPairs/6)
	_, _, err := session(&w, "warmup", 0, nil)
	return err
}

// jobLatencies reports POST /jobs to verdict fetched, by job kind.
func jobLatencies(m map[string]float64, s *phaseStats) {
	m["service.fresh_job_p50_ms"] = 1000 * quantile(s.fresh, 0.5)
	m["service.fresh_job_p99_ms"] = 1000 * quantile(s.fresh, 0.99)
	m["service.hit_job_p50_ms"] = 1000 * quantile(s.hit, 0.5)
	m["service.hit_job_p99_ms"] = 1000 * quantile(s.hit, 0.99)
}

func karddUntraced(cfg *config) (*outcome, error) {
	o := newOutcome()
	var s *phaseStats
	setup, err := timeSetup(cfg, "kardd", func() error {
		if err := warmUp(cfg); err != nil {
			return err
		}
		var err error
		s, err = runPhase(cfg, "run", cfg.seconds, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed, o.errs = s.attempted, s.failed, s.errs
	m := o.metrics
	m["setup_s"] = setup
	m["campaign_s"] = median(s.loads)
	jobLatencies(m, s)
	m["ok_ratio"] = ratio(float64(s.attempted-s.failed), float64(s.attempted))
	m["peak_rss_mb"] = peakRSSMiB()
	fmt.Fprintf(cfg.out, "# kardd: %d clients, %d sessions of %d pairs each, %d fresh and %d hit jobs (p99 over each), %d rejected, %d cache hits, scale %.3g; campaign_s samples %v\n",
		cfg.lanes, len(s.loads), cfg.kdPairs, len(s.fresh), len(s.hit), s.rejects, s.srv.Cache.Hits, cfg.kdScale, s.loads)
	return o, nil
}

// karddTraced runs an untraced phase and then a traced one, each half
// of the run on its own fresh service; their session times give the tracing
// overhead.
func karddTraced(cfg *config) (*outcome, error) {
	o := newOutcome()
	if err := warmUp(cfg); err != nil {
		return nil, err
	}
	plain, err := runPhase(cfg, "plain", cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	before := snapshot()
	s, err := runPhase(cfg, "traced", cfg.seconds/2, rec)
	if err != nil {
		return nil, err
	}
	d := snapshot().sub(before)
	o.attempted = plain.attempted + s.attempted
	o.failed = plain.failed + s.failed
	o.errs = append(plain.errs, s.errs...)

	m, st := o.metrics, s.srv
	jobLatencies(m, plain)
	m["service.submit_ms_p50"] = 1000 * quantile(s.submit, 0.5)
	m["service.submit_ms_p99"] = 1000 * quantile(s.submit, 0.99)
	m["service.wait_ms_p50"] = 1000 * quantile(s.wait, 0.5)
	m["service.fetch_ms_p50"] = 1000 * quantile(s.fetch, 0.5)
	m["service.polls_per_job"] = mean(s.polls)
	m["service.rejects"] = float64(st.RejectedSaturated + st.RejectedQuarantined + st.RejectedDraining)
	m["journal.appends_per_job"] = ratio(float64(st.Journal.Appended), float64(s.attempted))
	m["journal.kb_per_job"] = ratio(float64(s.walBytes), float64(s.walAppends)) * m["journal.appends_per_job"] / 1024
	m["journal.compactions"] = float64(st.Journal.Compactions)
	m["harness.cache_hits"] = float64(st.Cache.Hits)
	m["harness.cache_misses"] = float64(st.Cache.Misses)
	m["harness.cache_writes"] = float64(st.Cache.Writes)
	m["harness.cache_hit_ratio"] = ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses))
	m["sim.ops"] = s.ops
	layerCounts(m, d)
	m["bench.trace_overhead_pct"] = (ratio(median(s.loads), median(plain.loads)) - 1) * 100
	return o, finishTrace(cfg, o, rec, "kardd", s.load, cfg.lanes)
}
