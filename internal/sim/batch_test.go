package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mpk"
)

// batchWorkload is a program that exercises every way a batch drains:
// several threads, each hammering its own objects with long access runs
// that fill the buffer, separated by computes, plus enough cross-thread
// synchronization (locks, a barrier, a sweep) to drain at sync points
// too.
func batchWorkload(threads, accesses int) func(e *Engine, m *Thread) {
	return func(e *Engine, m *Thread) {
		mu := e.NewMutex("mu")
		bar := e.NewBarrier(threads)
		var ws []*Thread
		for i := 0; i < threads; i++ {
			ws = append(ws, m.Go(fmt.Sprintf("w%d", i), func(w *Thread) {
				obj := w.Malloc(256, "obj")
				pool := make([]*alloc.Object, 8)
				for j := range pool {
					pool[j] = w.Malloc(32, "pool")
				}
				w.Barrier(bar)
				for j := 0; j < accesses; j++ {
					w.Write(obj, uint64(j%32)*8, 8, "hot-w")
					w.Read(obj, 0, 8, "hot-r")
					if j%100 == 99 {
						w.Lock(mu, "sync")
						w.Compute(10)
						w.Unlock(mu)
					}
					if j%64 == 63 {
						w.Compute(1)
					}
				}
				w.Sweep(pool, 32, mpk.Read, "sweep")
				w.Free(obj)
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	}
}

// runMode runs a body under one execution mode and returns its stats.
func runMode(t *testing.T, mode string, seed int64, body func(e *Engine, m *Thread)) (*Stats, *Engine) {
	t.Helper()
	e := New(Config{Seed: seed, ExecMode: mode}, nil)
	st, err := e.Run(func(m *Thread) { body(e, m) })
	if err != nil {
		t.Fatalf("mode %q: %v", mode, err)
	}
	return st, e
}

// TestExecModesByteIdentical is the engine-level differential check: the
// same program under serial and parallel execution (explicit and the ""
// default) must produce byte-identical statistics — execution times,
// operation counts, TLB counters, everything JSON encodes. The full workload corpus version
// lives in the harness package; this one pins the engine in isolation.
func TestExecModesByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		body := batchWorkload(4, 400)
		want, _ := runMode(t, ExecModeSerial, seed, body)
		wantJS, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{ExecModeParallel, ""} {
			got, _ := runMode(t, mode, seed, body)
			gotJS, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJS) != string(wantJS) {
				t.Errorf("seed %d mode %q diverges from serial:\nserial: %s\nmode:   %s",
					seed, mode, wantJS, gotJS)
			}
		}
	}
}

// TestBatchDrains guards against batching silently switching off, which
// would leave the batched path untested while the differential tests
// still pass: the default mode must drain batches, as often as the
// explicit "parallel" mode, and the serial oracle must never drain.
func TestBatchDrains(t *testing.T) {
	body := batchWorkload(4, 400)
	_, ed := runMode(t, "", 1, body)
	drains := ed.BatchDrains()
	if drains == 0 {
		t.Fatal("default mode drained no batches")
	}
	_, ep := runMode(t, ExecModeParallel, 1, body)
	if got := ep.BatchDrains(); got != drains {
		t.Fatalf("parallel mode drained %d batches, default %d", got, drains)
	}
	_, es := runMode(t, ExecModeSerial, 1, body)
	if got := es.BatchDrains(); got != 0 {
		t.Fatalf("serial mode drained %d batches", got)
	}
}

// TestBatchDrainNoGoroutineLeak: every Run exit path must leave no
// goroutine behind — batch drains must not leave threads parked, and
// deadlock, panic, and watchdog teardowns must release every parked,
// ready, and queued thread. After each kind of run the process goroutine
// count must return to its baseline.
func TestBatchDrainNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(label string) { t.Helper(); waitGoroutines(t, base, label) }

	for i := 0; i < 5; i++ {
		runMode(t, "", int64(i+1), batchWorkload(4, 200))
	}
	settled("batched runs")

	e := New(Config{}, nil)
	a, b, both := e.NewMutex("a"), e.NewMutex("b"), e.NewBarrier(2)
	_, err := e.Run(func(m *Thread) {
		x := m.Go("x", func(x *Thread) { x.Lock(a, "xa"); x.Barrier(both); x.Lock(b, "xb") })
		y := m.Go("y", func(y *Thread) { y.Lock(b, "yb"); y.Barrier(both); y.Lock(a, "ya") })
		m.Join(x)
		m.Join(y)
	})
	if err == nil || !strings.Contains(err.Error(), "lock cycle") {
		t.Fatalf("lock cycle: got %v, want a deadlock report", err)
	}
	settled("deadlock")

	_, err = New(Config{}, nil).Run(func(m *Thread) {
		m.Compute(1)
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "workload panic") {
		t.Fatalf("body panic: got %v, want a workload panic", err)
	}
	settled("panic")

	// Watchdog fire with every thread parked or queued within the grace:
	// main spins on operations, a worker waits on the mutex main holds.
	e = New(Config{Watchdog: 10 * time.Millisecond}, nil)
	mu := e.NewMutex("mu")
	_, err = e.Run(func(m *Thread) {
		m.Lock(mu, "s")
		m.Go("w", func(w *Thread) { w.Lock(mu, "s") })
		for {
			m.Compute(1)
		}
	})
	if !errors.Is(err, ErrWatchdog) || strings.Contains(err.Error(), "leaked") {
		t.Fatalf("watchdog, all parked: got %v, want ErrWatchdog with nothing leaked", err)
	}
	settled("watchdog, all parked")

	// Watchdog fire seen with four threads in the ready queue: the
	// barrier release wakes all four inside a hook that outlasts the
	// watchdog.
	det := &abortWaitDetector{}
	e = New(Config{Watchdog: 10 * time.Millisecond}, det)
	bar := e.NewBarrier(4)
	_, err = e.Run(func(m *Thread) {
		var ws []*Thread
		for i := 0; i < 4; i++ {
			ws = append(ws, m.Go(fmt.Sprintf("w%d", i), func(w *Thread) {
				w.Barrier(bar)
				w.Compute(1)
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("watchdog, ready queue: got %v, want ErrWatchdog", err)
	}
	if n := strings.Count(err.Error(), "ready after barrier"); n != 4 {
		t.Fatalf("watchdog, ready queue: %d threads ready after the barrier, want 4:\n%v", n, err)
	}
	settled("watchdog, ready queue")
}

// waitGoroutines fails the test unless the process goroutine count drops
// back to base within a few seconds.
func waitGoroutines(t *testing.T, base int, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("%s: goroutines leaked: %d -> %d\n%s", label, base, n, buf[:runtime.Stack(buf, true)])
	}
}

// abortWaitDetector's BarrierPassed returns only once the engine's
// watchdog has fired, so the threads the barrier releases are still in
// the ready queue when the baton holder sees the abort.
type abortWaitDetector struct {
	Baseline
	e *Engine
}

func (d *abortWaitDetector) Setup(e *Engine) { d.e = e }

func (d *abortWaitDetector) BarrierPassed([]*Thread) cycles.Duration {
	for !d.e.abort.Load() {
		time.Sleep(time.Millisecond)
	}
	return 0
}

// retainingDetector violates the OnAccess contract by keeping the *Access
// pointer after the hook returns.
type retainingDetector struct {
	Baseline
	retained *Access
	firstObj *alloc.Object
	firstOff uint64
}

func (d *retainingDetector) OnAccess(a *Access) cycles.Duration {
	if d.retained == nil {
		d.retained = a
		d.firstObj = a.Object
		d.firstOff = a.Offset()
	}
	return 0
}

// TestRetainingDetectorIsCaught pins the batch-storage retention contract
// the Detector interface documents: the record behind the *Access a
// detector receives is engine-owned and reused, so a retained pointer's
// contents are clobbered by a later access of the same thread. A detector
// that retains must observably break — this is what makes the reuse safe
// to rely on for the zero-allocation fast path.
func TestRetainingDetectorIsCaught(t *testing.T) {
	for _, mode := range []string{ExecModeSerial, ""} {
		det := &retainingDetector{}
		e := New(Config{ExecMode: mode}, det)
		if _, err := e.Run(func(m *Thread) {
			a := m.Malloc(64, "a")
			b := m.Malloc(64, "b")
			m.Read(a, 0, 8, "first")
			m.Write(b, 16, 8, "second")
			m.Flush()
		}); err != nil {
			t.Fatal(err)
		}
		if det.retained == nil {
			t.Fatalf("mode %q: detector saw no accesses", mode)
		}
		if det.retained.Object == det.firstObj && det.retained.Offset() == det.firstOff {
			t.Errorf("mode %q: retained record kept its contents; the engine must reuse the record", mode)
		}
		if det.retained.Site != "second" {
			t.Errorf("mode %q: retained record shows %q, want clobber by %q", mode, det.retained.Site, "second")
		}
	}
}

// TestBatchErrorDiscardsRest: an access error surfaces at the drain sync
// point as a panic in the thread body, and the accesses buffered after
// the failing one never reach the detector — the scalar engine would have
// panicked at the failing access and never submitted them.
func TestBatchErrorDiscardsRest(t *testing.T) {
	var sites []string
	cd := &siteRecorder{sites: &sites}
	e := New(Config{}, cd)
	_, err := e.Run(func(m *Thread) {
		good := m.Malloc(32, "good")
		bad := m.Malloc(32, "bad")
		m.Read(good, 0, 8, "ok-1")
		m.Free(bad)
		m.Read(bad, 0, 8, "uaf")
		m.Read(good, 8, 8, "never")
		defer func() {
			if r := recover(); r == nil {
				t.Error("expected the drain to panic with the access error")
			}
			if m.BufferedAccesses() != 0 {
				t.Errorf("batch not discarded: %d entries left", m.BufferedAccesses())
			}
		}()
		m.Flush()
	})
	if err != nil {
		t.Fatalf("recovered run still failed: %v", err)
	}
	for _, s := range sites {
		if s == "never" {
			t.Error("access after the failing one reached the detector")
		}
	}
	if !strings.Contains(strings.Join(sites, ","), "ok-1") {
		t.Errorf("access before the failing one never reached the detector: %v", sites)
	}
}

// siteRecorder records the Site of every OnAccess call (copied, honoring
// the no-retention contract).
type siteRecorder struct {
	Baseline
	sites *[]string
}

func (d *siteRecorder) OnAccess(a *Access) cycles.Duration {
	*d.sites = append(*d.sites, a.Site)
	return 0
}

// TestFlushSemantics: BufferedAccesses reflects buffering, Flush drains,
// and serial mode never buffers.
func TestFlushSemantics(t *testing.T) {
	e := New(Config{}, nil)
	if _, err := e.Run(func(m *Thread) {
		o := m.Malloc(64, "o")
		m.Read(o, 0, 8, "r1")
		m.Write(o, 8, 8, "w1")
		if n := m.BufferedAccesses(); n != 2 {
			t.Errorf("BufferedAccesses = %d, want 2", n)
		}
		m.Flush()
		if n := m.BufferedAccesses(); n != 0 {
			t.Errorf("BufferedAccesses after Flush = %d, want 0", n)
		}
		m.Flush() // idempotent on an empty buffer
	}); err != nil {
		t.Fatal(err)
	}

	es := New(Config{ExecMode: ExecModeSerial}, nil)
	if _, err := es.Run(func(m *Thread) {
		o := m.Malloc(64, "o")
		m.Read(o, 0, 8, "r1")
		if n := m.BufferedAccesses(); n != 0 {
			t.Errorf("serial mode buffered %d accesses", n)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferFullDrains: the buffer drains automatically when it reaches
// its capacity, without an intervening sync point.
func TestBufferFullDrains(t *testing.T) {
	e := New(Config{}, nil)
	if _, err := e.Run(func(m *Thread) {
		o := m.Malloc(64, "o")
		for i := 0; i < DefaultBatchSize-1; i++ {
			m.Read(o, 0, 8, "r")
		}
		if n := m.BufferedAccesses(); n != DefaultBatchSize-1 {
			t.Fatalf("BufferedAccesses = %d, want %d", n, DefaultBatchSize-1)
		}
		m.Read(o, 0, 8, "last") // fills the buffer: drains
		if n := m.BufferedAccesses(); n != 0 {
			t.Fatalf("BufferedAccesses after fill = %d, want 0", n)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if e.BatchDrains() == 0 {
		t.Error("no drain recorded")
	}
}

// TestComputeBuffered: under the default mode a Compute joins the batch
// like an access. It adds one entry and leaves Now where it was; the next
// Flush or sync point charges it, and the clock then equals the serial
// run's. A body of nothing but computes still drains each time the buffer
// fills, and ends with the serial run's statistics; serial mode parks on
// every Compute and never drains.
func TestComputeBuffered(t *testing.T) {
	program := func(batched bool, clocks *[2]cycles.Time) func(e *Engine, m *Thread) {
		return func(e *Engine, m *Thread) {
			mu := e.NewMutex("mu")
			start := m.Now()
			m.Compute(100)
			if batched {
				if n := m.BufferedAccesses(); n != 1 {
					t.Errorf("BufferedAccesses after Compute = %d, want 1", n)
				}
				if now := m.Now(); now != start {
					t.Errorf("Now = %d before the drain, want %d", now, start)
				}
			}
			m.Flush()
			clocks[0] = m.Now()
			m.Compute(40)
			m.Compute(2)
			if now := m.Now(); batched && now != clocks[0] {
				t.Errorf("Now = %d with two computes buffered, want %d", now, clocks[0])
			}
			m.Lock(mu, "s") // a sync point drains
			if n := m.BufferedAccesses(); n != 0 {
				t.Errorf("BufferedAccesses after Lock = %d, want 0", n)
			}
			clocks[1] = m.Now()
			m.Unlock(mu)
		}
	}
	var want, got [2]cycles.Time
	runMode(t, ExecModeSerial, 1, program(false, &want))
	runMode(t, "", 1, program(true, &got))
	if got != want {
		t.Errorf("clocks after the drains = %v, want the serial run's %v", got, want)
	}

	computeOnly := func(e *Engine, m *Thread) {
		for i := 0; i < 3*DefaultBatchSize; i++ {
			m.Compute(1)
		}
	}
	bst, eb := runMode(t, "", 1, computeOnly)
	if got := eb.BatchDrains(); got != 3 {
		t.Errorf("compute-only body drained %d batches, want 3", got)
	}
	sst, es := runMode(t, ExecModeSerial, 1, computeOnly)
	if got := es.BatchDrains(); got != 0 {
		t.Errorf("serial mode drained %d batches", got)
	}
	bjs, _ := json.Marshal(bst)
	sjs, _ := json.Marshal(sst)
	if string(bjs) != string(sjs) {
		t.Errorf("compute-only stats diverge:\nserial:  %s\nbatched: %s", sjs, bjs)
	}
}

// TestBatchEntrySize pins a batch slot at 72 bytes: the compute cost
// rides in size and the entry tag in kind's padding, and a larger entry
// costs measurably more to fill and replay.
func TestBatchEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(batchEntry{}); got != 72 {
		t.Errorf("sizeof(batchEntry) = %d, want 72", got)
	}
}

// TestInvalidExecModePanics: a typo in Config.ExecMode must fail loudly
// at engine construction, not silently fall back to a default.
func TestInvalidExecModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with a bogus ExecMode should panic")
		}
	}()
	New(Config{ExecMode: "turbo"}, nil)
}
