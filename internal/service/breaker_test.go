package service

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives breaker tests deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func newTestBreaker(c *fakeClock, cfg BreakerConfig) *breaker {
	return newBreaker("memcached", cfg, c.now)
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, BreakerConfig{Threshold: 3, Cooldown: time.Minute, Seed: 7})

	for i := 0; i < 2; i++ {
		if b.record(true) {
			t.Fatalf("breaker changed state on failure %d, before the threshold", i+1)
		}
		if err := b.allow(); err != nil {
			t.Fatalf("breaker rejecting below threshold: %v", err)
		}
	}
	if !b.record(true) {
		t.Fatal("third consecutive trip did not open the breaker")
	}
	err := b.allow()
	var qe *QuarantineError
	if !errors.As(err, &qe) || !errors.Is(err, ErrQuarantined) {
		t.Fatalf("open breaker allow() = %v, want QuarantineError", err)
	}
	if qe.Workload != "memcached" || qe.RetryAfter <= 0 {
		t.Fatalf("bad quarantine hint: %+v", qe)
	}
	// Jitter keeps the cooldown within [0.5, 1.5)× the base.
	if b.openFor < 30*time.Second || b.openFor >= 90*time.Second {
		t.Fatalf("first cooldown %v outside [0.5, 1.5)x of 1m", b.openFor)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, BreakerConfig{Threshold: 3, Cooldown: time.Minute})
	b.record(true)
	b.record(true)
	b.record(false) // success: the streak must restart
	b.record(true)
	b.record(true)
	if b.state != breakerClosed {
		t.Fatalf("breaker opened on a non-consecutive streak (state %s)", b.state)
	}
	if b.record(true); b.state != breakerOpen {
		t.Fatal("third consecutive trip after the reset did not open the breaker")
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, BreakerConfig{Threshold: 1, Cooldown: time.Minute, Seed: 3})
	b.record(true)
	if b.state != breakerOpen {
		t.Fatal("threshold-1 breaker did not open on first trip")
	}
	clk.advance(b.openFor) // cooldown elapses exactly

	if err := b.allow(); err != nil {
		t.Fatalf("first post-cooldown admission (the probe) rejected: %v", err)
	}
	if b.state != breakerHalfOpen || !b.probing {
		t.Fatalf("state after probe admission: %s probing=%v", b.state, b.probing)
	}
	// Only one probe may be in flight.
	if err := b.allow(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second concurrent probe admitted: %v", err)
	}
}

func TestBreakerProbeSuccessCloses(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, BreakerConfig{Threshold: 1, Cooldown: time.Minute})
	b.record(true)
	clk.advance(b.openFor + time.Second)
	if err := b.allow(); err != nil {
		t.Fatal(err)
	}
	if !b.record(false) {
		t.Fatal("probe success did not report a state change")
	}
	if b.state != breakerClosed || b.probing {
		t.Fatalf("after probe success: state=%s probing=%v", b.state, b.probing)
	}
	if err := b.allow(); err != nil {
		t.Fatalf("closed breaker rejecting: %v", err)
	}
}

func TestBreakerProbeFailureDoublesCooldown(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, BreakerConfig{Threshold: 1, Cooldown: time.Minute, Seed: 11})
	b.record(true)
	first := b.openFor
	clk.advance(first + time.Second)
	if err := b.allow(); err != nil {
		t.Fatal(err)
	}
	if !b.record(true) {
		t.Fatal("probe failure did not report a state change")
	}
	if b.state != breakerOpen {
		t.Fatalf("probe failure left state %s, want open", b.state)
	}
	// Second trip: base doubles to 2m, jittered into [1m, 3m).
	if b.openFor < time.Minute || b.openFor >= 3*time.Minute {
		t.Fatalf("re-trip cooldown %v outside [0.5, 1.5)x of 2m (first was %v)", b.openFor, first)
	}
}

func TestBreakerCooldownCapped(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, BreakerConfig{Threshold: 1, Cooldown: time.Minute, MaxCooldown: 4 * time.Minute})
	for i := 0; i < 40; i++ { // far past where 1m<<n overflows
		b.trip()
	}
	if b.openFor >= 6*time.Minute { // 1.5 × MaxCooldown
		t.Fatalf("cooldown %v exceeds jittered MaxCooldown", b.openFor)
	}
}

func TestBreakerJitterDeterministic(t *testing.T) {
	a := jitter(42, "nginx", 3)
	if a < 0 || a >= 1 {
		t.Fatalf("jitter out of [0,1): %v", a)
	}
	if b := jitter(42, "nginx", 3); a != b {
		t.Fatalf("jitter not deterministic: %v vs %v", a, b)
	}
	if b := jitter(43, "nginx", 3); a == b {
		t.Fatal("jitter ignores the seed")
	}
	if b := jitter(42, "pigz", 3); a == b {
		t.Fatal("jitter ignores the workload")
	}
	if b := jitter(42, "nginx", 4); a == b {
		t.Fatal("jitter ignores the trip ordinal")
	}
}

// TestBreakerRestore covers journal replay: an open breaker must survive
// a daemon crash, and one whose cooldown elapsed while the daemon was
// down must not come back.
func TestBreakerRestore(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, BreakerConfig{})
	until := clk.now().Add(5 * time.Minute)
	b.restore(2, until)
	if b.state != breakerOpen || b.trips != 2 {
		t.Fatalf("restore did not reopen: state=%s trips=%d", b.state, b.trips)
	}
	if err := b.allow(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("restored breaker admits: %v", err)
	}
	// A re-trip after restore continues the backoff from the restored count.
	clk.advance(6 * time.Minute)
	if err := b.allow(); err != nil {
		t.Fatalf("post-cooldown probe rejected: %v", err)
	}
	b.record(true)
	if b.trips != 3 {
		t.Fatalf("trips after restored re-trip = %d, want 3", b.trips)
	}

	// Elapsed quarantine: restore is a no-op.
	b2 := newTestBreaker(clk, BreakerConfig{})
	b2.restore(4, clk.now().Add(-time.Second))
	if b2.state != breakerClosed {
		t.Fatalf("elapsed restore reopened the breaker: %s", b2.state)
	}
}
