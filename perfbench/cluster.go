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
	"path"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kard/internal/cluster"
	"kard/internal/harness"
	"kard/internal/service"
)

// clusterSpecs builds the campaign's cells the way kardd -cluster builds
// a job file's: one job per app × Table 3's four modes × the seeds,
// normalised with kardd's defaults and expanded by JobSpec.Cells.
func clusterSpecs(cfg *config) ([]harness.Spec, error) {
	gen := cfg.rng("cluster")
	seeds := make([]int64, cfg.clSeeds)
	for i := range seeds {
		seeds[i] = 1 + gen.Int63n(1<<40)
	}
	var all []harness.Spec
	for _, app := range cfg.clApps {
		js := service.JobSpec{Workload: app, Modes: appModes, Seeds: seeds, Scale: cfg.clScale}
		if err := js.Normalize(service.ServerDefaults{CellTimeout: 2 * time.Minute}); err != nil {
			return nil, err
		}
		all = append(all, js.Cells()...)
	}
	return all, nil
}

// clusterRun is one campaign's coordinator, with its own journal and
// shared store, serving loopback HTTP to cfg.lanes in-process workers
// that joined with kardd's default client options.
type clusterRun struct {
	coord   *cluster.Coordinator
	hs      *http.Server
	served  chan struct{}
	clients []*cluster.Client
	stores  []*harness.Cache
}

func openCluster(cfg *config, dir string, specs []harness.Spec, ct *clusterTrace) (*clusterRun, error) {
	storeDir := filepath.Join(dir, "store")
	store, err := harness.OpenCache(storeDir)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.New(cluster.Config{Dir: filepath.Join(dir, "coord"), Store: store}, specs)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	h := coord.Handler()
	if ct != nil {
		h = ct.middleware(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/cluster/", h)
	c := &clusterRun{coord: coord, hs: &http.Server{Handler: mux}, served: make(chan struct{})}
	go func() {
		defer close(c.served)
		_ = c.hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	for w := 0; w < cfg.lanes; w++ {
		st, err := harness.OpenCache(storeDir)
		if err != nil {
			c.close()
			return nil, err
		}
		var opts cluster.ClientOptions
		if ct != nil {
			opts.Transport = &timingTransport{ct: ct, lane: w}
		}
		cl, err := cluster.DialWith(context.Background(), base, fmt.Sprintf("perfbench-%d", w), opts)
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients, c.stores = append(c.clients, cl), append(c.stores, st)
	}
	return c, nil
}

func (c *clusterRun) close() {
	_ = c.hs.Close()
	<-c.served
	_ = c.coord.Close()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// campaign runs every worker until the matrix settles. It returns the
// time from the workers' start to the coordinator's last merged result,
// and the time until every worker has returned.
func (c *clusterRun) campaign(ct *clusterTrace) (time.Duration, time.Duration, []harness.MatrixResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, len(c.clients))
	t := time.Now()
	for w, cl := range c.clients {
		wo := cluster.WorkerOptions{Store: c.stores[w]}
		if ct != nil {
			wo.OnCell = ct.onCell(w)
		}
		go func(cl *cluster.Client) { errs <- cluster.RunWorker(ctx, cl, wo) }(cl)
	}
	werr := c.coord.Wait(ctx)
	d := time.Since(t)
	for range c.clients {
		if err := <-errs; err != nil && werr == nil {
			werr = err
		}
	}
	return d, time.Since(t), c.coord.Results(), werr
}

// oneCampaign sets up a fresh cluster in the workload's state directory,
// runs it and stops it.
func oneCampaign(cfg *config, specs []harness.Spec, ct *clusterTrace) (time.Duration, time.Duration, []harness.MatrixResult, error) {
	dir, err := os.MkdirTemp(cfg.state, "cluster-")
	if err != nil {
		return 0, 0, nil, err
	}
	c, err := openCluster(cfg, dir, specs, ct)
	if err != nil {
		return 0, 0, nil, err
	}
	defer c.close()
	if ct != nil {
		ct.active.Store(true)
		defer ct.active.Store(false)
	}
	d, all, res, err := c.campaign(ct)
	if ct != nil {
		for _, st := range c.stores {
			s := st.Stats()
			ct.cache.Hits += s.Hits
			ct.cache.Misses += s.Misses
			ct.cache.Writes += s.Writes
		}
	}
	return d, all, res, err
}

// checkCluster applies the output checks to one campaign and returns the
// number of failed cells.
func checkCluster(cfg *config, o *outcome, res []harness.MatrixResult) int {
	failed := 0
	type key struct {
		app  string
		seed int64
	}
	cycles := map[key]map[harness.Mode]uint64{}
	for _, r := range res {
		if r.Err != nil || r.Result == nil {
			failed++
			o.fail("cluster cell %s failed: %v", r.Spec.Label(), r.Err)
			continue
		}
		if want, ok := cfg.races[r.Spec.Workload]; ok && r.Spec.Mode == harness.ModeKard {
			if got := harness.DistinctRacyObjects(r.Result); got != want {
				o.fail("cluster cell %s reports %d distinct racy objects, Table 6 has %d", r.Spec.Label(), got, want)
			}
		}
		k := key{r.Spec.Workload, r.Spec.Seed}
		if cycles[k] == nil {
			cycles[k] = map[harness.Mode]uint64{}
		}
		cycles[k][r.Spec.Mode] = uint64(r.Result.Stats.ExecTime)
	}
	for k, c := range cycles {
		if !(c[harness.ModeBaseline] <= c[harness.ModeAlloc] && c[harness.ModeAlloc] <= c[harness.ModeKard] && c[harness.ModeKard] < c[harness.ModeTSan]) {
			o.fail("cluster %s seed %d: virtual cycles not Baseline ≤ Alloc ≤ Kard < TSan: %v", k.app, k.seed, c)
		}
	}
	return failed
}

// sameResults reports whether two campaigns produced identical cells.
func sameResults(a, b []harness.MatrixResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Result == nil || b[i].Result == nil {
			return false
		}
		if !reflect.DeepEqual(a[i].Result.Stats, b[i].Result.Stats) || a[i].Result.Summary != b[i].Result.Summary {
			return false
		}
	}
	return true
}

// clusterCampaigns runs campaigns for dur (at least one), checking each.
func clusterCampaigns(cfg *config, o *outcome, specs []harness.Spec, dur time.Duration, ct *clusterTrace,
	twin []harness.MatrixResult) (walls, tails []float64, first []harness.MatrixResult) {
	start := time.Now()
	for another(start, dur, tails) {
		d, all, res, err := oneCampaign(cfg, specs, ct)
		o.attempted += len(specs)
		if err != nil {
			o.failed += len(specs)
			o.fail("cluster campaign: %v", err)
			return walls, tails, first
		}
		walls, tails = append(walls, d.Seconds()), append(tails, all.Seconds())
		o.failed += checkCluster(cfg, o, res)
		if first == nil {
			first = res
		}
		if twin == nil {
			twin = first
		}
		if !sameResults(twin, res) {
			o.fail("cluster campaign %d: cells differ from the first untraced campaign", len(walls))
		}
	}
	return walls, tails, first
}

// warmUpCluster runs one campaign that is checked like the others but
// left out of every timing, so that the first timed campaign does not pay
// for the process's cold start. It returns the campaign's cells, which
// every later campaign must repeat.
func warmUpCluster(cfg *config, o *outcome, specs []harness.Spec) []harness.MatrixResult {
	_, _, first := clusterCampaigns(cfg, o, specs, 0, nil, nil)
	return first
}

func clusterUntraced(cfg *config) (*outcome, error) {
	o := newOutcome()
	specs, err := clusterSpecs(cfg)
	if err != nil {
		return nil, err
	}
	var walls []float64
	setup, err := timeSetup(cfg, "cluster", func() error {
		start := time.Now()
		twin := warmUpCluster(cfg, o, specs)
		walls, _, _ = clusterCampaigns(cfg, o, specs, cfg.seconds-time.Since(start), nil, twin)
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	o.metrics["campaign_s"] = median(walls)
	o.metrics["ok_ratio"] = ratio(float64(o.attempted-o.failed), float64(o.attempted))
	o.metrics["peak_rss_mb"] = peakRSSMiB()
	fmt.Fprintf(cfg.out, "# cluster: %d timed campaigns (after one warm-up) of %d cells on %d workers, scale %.3g; campaign_s samples %v\n",
		len(walls), len(specs), cfg.lanes, cfg.clScale, walls)
	return o, nil
}

// clusterTraced runs untraced campaigns for half the run and traced ones
// for the other half; their median walls give the tracing overhead, and
// every traced cell must equal its untraced twin.
func clusterTraced(cfg *config) (*outcome, error) {
	o := newOutcome()
	specs, err := clusterSpecs(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	twin := warmUpCluster(cfg, o, specs)
	plain, _, _ := clusterCampaigns(cfg, o, specs, cfg.seconds/2-time.Since(start), nil, twin)
	ct := &clusterTrace{rec: newRecorder(), cellStart: make([]time.Duration, cfg.lanes)}
	before := snapshot()
	traced, tails, _ := clusterCampaigns(cfg, o, specs, cfg.seconds/2, ct, twin)
	d := snapshot().sub(before)

	m := o.metrics
	ct.mu.Lock()
	m["cluster.lease_ms_p50"] = quantile(ct.lease, 0.5)
	m["cluster.lease_ms_p90"] = quantile(ct.lease, 0.9)
	m["cluster.complete_ms_p50"] = quantile(ct.complete, 0.5)
	m["cluster.complete_ms_p90"] = quantile(ct.complete, 0.9)
	m["cluster.heartbeat_ms_p50"] = quantile(ct.heartbeat, 0.5)
	m["cluster.server_lease_ms_p50"] = quantile(ct.serverLease, 0.5)
	m["cluster.server_complete_ms_p50"] = quantile(ct.serverComplete, 0.5)
	m["cluster.cell_ms_p50"] = quantile(ct.cells, 0.5)
	m["cluster.cell_ms_p90"] = quantile(ct.cells, 0.9)
	var busy, wall float64
	for _, c := range ct.cells {
		busy += c / 1000
	}
	for _, w := range traced {
		wall += w
	}
	m["cluster.busy_share"] = ratio(busy, float64(cfg.lanes)*wall)
	m["cluster.complete_kb_p50"] = quantile(ct.completeKB, 0.5)
	m["cluster.lease_waits"] = float64(ct.leaseWaits)
	m["harness.cache_hits"] = float64(ct.cache.Hits)
	m["harness.cache_misses"] = float64(ct.cache.Misses)
	m["harness.cache_writes"] = float64(ct.cache.Writes)
	m["harness.cache_hit_ratio"] = ratio(float64(ct.cache.Hits), float64(ct.cache.Hits+ct.cache.Misses))
	ct.mu.Unlock()
	for _, r := range twin {
		if r.Result != nil {
			m["sim.ops"] += float64(r.Result.Summary.Ops) * float64(len(traced))
		}
	}
	layerCounts(m, d)
	m["bench.trace_overhead_pct"] = (ratio(median(traced), median(plain)) - 1) * 100
	var window float64
	for _, t := range tails {
		window += t
	}
	return o, finishTrace(cfg, o, ct.rec, "cluster", time.Duration(window*float64(time.Second)), cfg.lanes)
}

// clusterTrace times the cluster from outside: a RoundTripper on each
// worker's client, a middleware around the coordinator's handler, and
// WorkerOptions.OnCell. Samples are in milliseconds (sizes in KiB).
type clusterTrace struct {
	rec    *recorder
	active atomic.Bool // set for the traced campaigns' lifetime (joins happen before)

	// cellStart is each worker's current cell start (0 = none); only the
	// worker's own goroutine touches its slot.
	cellStart []time.Duration

	mu                          sync.Mutex
	lease, complete, heartbeat  []float64
	serverLease, serverComplete []float64
	cells, completeKB           []float64
	leaseWaits                  int
	cache                       harness.CacheStats
}

// spanHeader carries the client span's index to the coordinator
// middleware, which records the server side as its child.
const spanHeader = "X-Perfbench-Span"

func (ct *clusterTrace) onCell(w int) func(int, harness.Spec) {
	return func(int, harness.Spec) { ct.cellStart[w] = ct.rec.now() }
}

func (ct *clusterTrace) sample(dst *[]float64, v float64) {
	ct.mu.Lock()
	*dst = append(*dst, v)
	ct.mu.Unlock()
}

type timingTransport struct {
	ct   *clusterTrace
	lane int
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct := t.ct
	op := path.Base(req.URL.Path)
	if !ct.active.Load() {
		return http.DefaultTransport.RoundTrip(req)
	}
	start := ct.rec.now()
	if op == "heartbeat" {
		// Heartbeats run on their own goroutine beside the worker's
		// lane, so they are timed but not part of the breakdown.
		resp, err := http.DefaultTransport.RoundTrip(req)
		ct.sample(&ct.heartbeat, float64(ct.rec.now()-start)/1e6)
		return resp, err
	}
	if op == "complete" {
		if cs := ct.cellStart[t.lane]; cs > 0 {
			ct.rec.add(t.lane, -1, "harness.cell", cs, start)
			ct.sample(&ct.cells, float64(start-cs)/1e6)
			ct.cellStart[t.lane] = 0
		}
		ct.sample(&ct.completeKB, float64(req.ContentLength)/1024)
	}
	idx := ct.rec.add(t.lane, -1, "cluster."+op, start, start)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(idx))
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && op == "lease" {
		// Read the answer here, inside the span, to count waits.
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var l struct {
			State string `json:"state"`
		}
		if json.Unmarshal(body, &l) == nil && l.State == string(cluster.LeaseWait) {
			ct.mu.Lock()
			ct.leaseWaits++
			ct.mu.Unlock()
		}
	}
	end := ct.rec.now()
	ct.rec.setEnd(idx, end)
	switch op {
	case "lease":
		ct.sample(&ct.lease, float64(end-start)/1e6)
	case "complete":
		ct.sample(&ct.complete, float64(end-start)/1e6)
	}
	return resp, err
}

func (ct *clusterTrace) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := ct.rec.now()
		h.ServeHTTP(w, r)
		end := ct.rec.now()
		op := path.Base(r.URL.Path)
		ct.rec.add(-1, parent, "cluster.server_"+op, start, end)
		switch op {
		case "lease":
			ct.sample(&ct.serverLease, float64(end-start)/1e6)
		case "complete":
			ct.sample(&ct.serverComplete, float64(end-start)/1e6)
		}
	})
}
