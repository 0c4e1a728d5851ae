// Package netfault lifts the repo's seeded, deterministic fault
// injection (internal/faultinject) to the cluster's HTTP boundary. A
// Transport wraps a worker's http.RoundTripper and, consulting a
// faultinject plan's net.* sites, drops requests before they reach the
// coordinator, delays them, duplicates them (the server executes the RPC
// twice), drops responses after the server executed the request, and
// severs bursts of consecutive requests to model a partition window.
//
// The injection schedule is a deterministic function of (seed, plan,
// per-site attempt sequence) — the same contract the in-process injector
// gives the syscall boundaries — so a chaos run is reproducible from its
// seed. What the schedule does NOT control is the goroutine interleaving
// of concurrent RPCs; that is exactly the point. The cluster's
// correctness argument (DESIGN.md §9) is that verdict bytes are a
// deterministic function of the spec matrix no matter what the network
// does, and scripts/partition.sh holds it to that by byte-diffing chaos
// verdicts against a fault-free run.
//
// Unlike the simulator-internal injector, a Transport is safe for
// concurrent use: worker RPCs arrive from the lease loop and the
// heartbeat goroutine at once, so the injector is consulted under a
// mutex (sleeps happen outside it).
package netfault

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"kard/internal/faultinject"
	"kard/internal/obs"
)

// ErrInjected marks a request failed by the fault transport. It wraps
// the underlying *faultinject.Error, so faultinject.IsInjected and
// IsTransient see through it (and through the *url.Error the HTTP
// client adds on top).
var ErrInjected = errors.New("netfault: injected network failure")

// injectedError carries the site detail while matching both ErrInjected
// and *faultinject.Error in errors.Is/As chains.
type injectedError struct {
	fe *faultinject.Error
}

func (e *injectedError) Error() string   { return fmt.Sprintf("netfault: %v", e.fe) }
func (e *injectedError) Unwrap() []error { return []error{ErrInjected, e.fe} }

// MaxDelay caps a single injected request delay regardless of the plan's
// Delay value, so a mistyped plan cannot wedge liveness RPCs for longer
// than the coordinator's heartbeat patience.
const MaxDelay = time.Second

// Transport is a fault-injecting http.RoundTripper. Construct it with
// New; the zero value is not usable.
type Transport struct {
	base http.RoundTripper

	mu  sync.Mutex
	inj *faultinject.Injector
}

// New wraps base (nil means http.DefaultTransport) with a fault
// transport driven by the plan's net.* sites under the given seed.
func New(base http.RoundTripper, seed int64, plan faultinject.Plan) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, inj: faultinject.New(seed, plan)}
}

// Stats snapshots the injector's counters (total injected and per-site
// breakdown) — the evidence a chaos run actually injected something.
func (t *Transport) Stats() faultinject.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inj.Stats()
}

// fail consults one site under the mutex.
func (t *Transport) fail(site faultinject.Site) *faultinject.Error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.inj.Fail(site)
	if err == nil {
		return nil
	}
	obs.Std.ClusterNetFaults.Inc()
	var fe *faultinject.Error
	errors.As(err, &fe)
	return fe
}

// delay consults the request-delay site under the mutex and returns the
// wall-clock delay to apply (the rule's Delay field is interpreted as
// milliseconds at the network boundary, capped at MaxDelay).
func (t *Transport) delay() time.Duration {
	t.mu.Lock()
	d := t.inj.Delay(faultinject.SiteNetReqDelay)
	t.mu.Unlock()
	if d == 0 {
		return 0
	}
	obs.Std.ClusterNetFaults.Inc()
	wall := time.Duration(d) * time.Millisecond
	if wall > MaxDelay {
		wall = MaxDelay
	}
	return wall
}

// RoundTrip applies the fault schedule to one request. Order of
// consultation per request: sever, drop, delay, duplicate, then (after
// the server answered) response drop. A request consumed by the body of
// another attempt is never silently truncated: duplication only happens
// when the request carries a replayable body (GetBody non-nil, which
// every request built from a *bytes.Reader has).
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if fe := t.fail(faultinject.SiteNetSever); fe != nil {
		return nil, &injectedError{fe}
	}
	if fe := t.fail(faultinject.SiteNetReqDrop); fe != nil {
		return nil, &injectedError{fe}
	}
	if d := t.delay(); d > 0 {
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if fe := t.fail(faultinject.SiteNetReqDup); fe != nil && req.GetBody != nil {
		// First delivery: the server executes the RPC, the "network"
		// discards the answer, and the original request is re-sent below.
		if dup, err := cloneRequest(req); err == nil {
			if resp, err := t.base.RoundTrip(dup); err == nil {
				drain(resp)
			}
		}
		body, err := req.GetBody()
		if err != nil {
			return nil, fmt.Errorf("netfault: rewinding duplicated request: %w", err)
		}
		req.Body = body
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if fe := t.fail(faultinject.SiteNetRespDrop); fe != nil {
		drain(resp)
		return nil, &injectedError{fe}
	}
	return resp, nil
}

// cloneRequest builds the duplicate delivery of req, sharing everything
// but the body (re-materialized via GetBody).
func cloneRequest(req *http.Request) (*http.Request, error) {
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	dup := req.Clone(req.Context())
	dup.Body = body
	return dup, nil
}

// drain discards and closes a response body so the underlying connection
// can be reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}
