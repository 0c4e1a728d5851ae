package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"kard/internal/faultinject"
)

// everyRule fires at every attempt of the given site.
func everyRule(site faultinject.Site, transient bool) faultinject.Plan {
	return faultinject.Plan{Sites: map[faultinject.Site]faultinject.Rule{
		site: {Every: 1, Transient: transient},
	}}
}

func TestWatchdogAbortsHungRun(t *testing.T) {
	e := New(Config{Watchdog: 50 * time.Millisecond}, nil)
	_, err := e.Run(func(m *Thread) {
		mu := e.NewMutex("mu")
		m.Lock(mu, "s")
		m.Go("worker", func(w *Thread) {
			w.Lock(mu, "s") // blocks forever: main never unlocks
		})
		// Main spins on the host clock without ever parking long enough
		// to finish; the watchdog must tear the run down.
		for {
			m.Compute(1)
		}
	})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("got %v, want ErrWatchdog", err)
	}
	// The error carries the thread-state dump and the flight recorder's
	// recent events (the watchdog fire itself is always the latest one).
	for _, want := range []string{"thread 0 (main)", "thread 1 (worker)", "waits on mutex",
		"flight recorder", "watchdog fired after"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("dump missing %q in:\n%s", want, err)
		}
	}
}

// TestWatchdogReleasesThreadBetweenOperations fires the watchdog while
// the only thread runs host code between two operations. The teardown
// must wait for it to park and release it; a leaked goroutine would
// block at its next operation forever and never run its defers.
func TestWatchdogReleasesThreadBetweenOperations(t *testing.T) {
	unwound := make(chan struct{})
	e := New(Config{Watchdog: 10 * time.Millisecond}, nil)
	_, err := e.Run(func(m *Thread) {
		defer close(unwound)
		m.Compute(1)
		// Parks again well after the watchdog fired, well inside abortGrace.
		time.Sleep(abortGrace / 2)
		m.Compute(1)
	})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("got %v, want ErrWatchdog", err)
	}
	if strings.Contains(err.Error(), "leaked") {
		t.Fatalf("thread leaked: %v", err)
	}
	select {
	case <-unwound:
	case <-time.After(time.Second):
		t.Fatal("thread goroutine was never released")
	}
}

// TestWatchdogReleasesPanickedThreadParkedOnExit fires the watchdog
// while a thread whose body panicked is parked on its exit operation and
// main holds the baton in host code past the grace. The teardown releases
// the panicked thread with errAborted, which its exit park inside the
// goroutine's panic recovery must swallow: panicking again there would
// escape the recovery and kill the process. Main, reported as leaked,
// unwinds at its exit park once its sleep ends.
func TestWatchdogReleasesPanickedThreadParkedOnExit(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(Config{Watchdog: 20 * time.Millisecond}, nil)
	_, err := e.Run(func(m *Thread) {
		m.Go("panicker", func(p *Thread) {
			p.Compute(1_000_000)
			panic("boom")
		})
		for i := 0; i < 4; i++ {
			m.Compute(10)
		}
		time.Sleep(3 * abortGrace)
	})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("got %v, want ErrWatchdog", err)
	}
	if !strings.Contains(err.Error(), "main(#0)] were leaked") {
		t.Fatalf("main was not reported as running past the grace: %v", err)
	}
	waitGoroutines(t, base, "thread goroutines did not unwind")
}

// TestWatchdogDumpNamesUnstartedThread takes a watchdog dump while a
// spawned child has never run: main holds the baton in host code right
// after the spawn, so the child waits in the ready queue with the zero
// pending operation, which the dump names as its start, not as a
// compute.
func TestWatchdogDumpNamesUnstartedThread(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	e := New(Config{Watchdog: 10 * time.Millisecond}, nil)
	_, err := e.Run(func(m *Thread) {
		m.Go("child", func(*Thread) {})
		<-release
	})
	close(release)
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("got %v, want ErrWatchdog", err)
	}
	var line string
	for _, l := range strings.Split(err.Error(), "\n") {
		if strings.HasPrefix(l, "  thread 1 (child):") {
			line = l
		}
	}
	if !strings.HasSuffix(line, ", 0 ops, ready after start") {
		t.Fatalf("dump line for the unstarted child = %q, want it ready after start:\n%s", line, err)
	}
	waitGoroutines(t, base, "thread goroutines did not unwind")
}

func TestWatchdogOffByDefault(t *testing.T) {
	e := New(Config{}, nil)
	st, err := e.Run(func(m *Thread) { m.Compute(100) })
	if err != nil || st == nil {
		t.Fatalf("plain run: %v", err)
	}
}

func TestPersistentMallocFaultFailsRun(t *testing.T) {
	e := New(Config{Faults: everyRule(faultinject.SiteMalloc, false)}, nil)
	_, err := e.Run(func(m *Thread) {
		m.Malloc(64, "obj")
	})
	if err == nil {
		t.Fatal("run with always-failing malloc succeeded")
	}
	if !faultinject.IsInjected(err) {
		t.Fatalf("error does not unwrap to the injected fault: %v", err)
	}
	if !strings.Contains(err.Error(), "sim: run failed") {
		t.Fatalf("got %q, want a structured run error, not a panic report", err)
	}
}

func TestTransientMallocFaultIsRetried(t *testing.T) {
	// Every 2nd malloc attempt fails transiently: each workload Malloc
	// needs at most one retry, so the run must succeed and count them.
	plan := faultinject.Plan{Sites: map[faultinject.Site]faultinject.Rule{
		faultinject.SiteMalloc: {Every: 2, Transient: true},
	}}
	e := New(Config{Faults: plan}, nil)
	st, err := e.Run(func(m *Thread) {
		for i := 0; i < 4; i++ {
			o := m.Malloc(64, "obj")
			m.Write(o, 0, 8, "w")
			m.Free(o)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.FaultsInjected == 0 || st.FaultRetries == 0 {
		t.Fatalf("injected=%d retried=%d, want both nonzero", st.FaultsInjected, st.FaultRetries)
	}
}

func TestGlobalRegistrationFaultFailsSetup(t *testing.T) {
	e := New(Config{Faults: everyRule(faultinject.SiteMmap, false)}, nil)
	if o := e.Global(64, "g"); o != nil {
		t.Fatalf("Global under persistent mmap failure returned %v, want nil", o)
	}
	_, err := e.Run(func(m *Thread) {})
	if err == nil || !strings.Contains(err.Error(), "sim: setup failed") {
		t.Fatalf("got %v, want a setup failure", err)
	}
	if !faultinject.IsInjected(err) {
		t.Fatalf("error does not unwrap to the injected fault: %v", err)
	}
}

func TestFrameExhaustionSurfacesAsRunError(t *testing.T) {
	e := New(Config{MaxFrames: 2}, nil)
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("frame exhaustion panicked: %v", p)
		}
	}()
	_, err := e.Run(func(m *Thread) {
		o := m.Malloc(16*4096, "big")
		m.Write(o, 0, 16*4096, "w") // touches more frames than exist
	})
	if err == nil {
		t.Fatal("run beyond the frame limit succeeded")
	}
	if !strings.Contains(err.Error(), "frame pool exhausted") {
		t.Fatalf("got %v, want frame exhaustion", err)
	}
}

func TestFaultStatsZeroWithoutPlan(t *testing.T) {
	e := New(Config{}, nil)
	st, err := e.Run(func(m *Thread) {
		o := m.Malloc(64, "obj")
		m.Write(o, 0, 8, "w")
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected != 0 || st.FaultRetries != 0 || st.Degraded != 0 || st.AllocFallbacks != 0 {
		t.Fatalf("fault counters nonzero without a plan: %+v", st)
	}
}
