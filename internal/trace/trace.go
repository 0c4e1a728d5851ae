// Package trace is the repo's structured span tracer: a low-overhead
// event collector with deterministic span/trace identifiers and an
// exporter to Chrome trace-event JSON (chrome.go), loadable in Perfetto
// or chrome://tracing.
//
// Design constraints, in order:
//
//  1. Determinism. Span and trace IDs derive from a seed, a scope string,
//     and monotonic per-track counters — never from time.Now or memory
//     addresses — so two same-seed runs produce byte-identical trace
//     topology. Timestamps are caller-supplied: deterministic layers
//     (sim, harness, kardbench) pass virtual clocks or logical counters,
//     wall-clock layers (kardd, the cluster) pass Tracer.Now. Each track
//     clamps its timestamps monotonically non-decreasing, so the export
//     validates under metricscheck -trace whichever clock fed it.
//
//  2. Low overhead, following the obs zero-alloc contract: each Track
//     owns a fixed-capacity event buffer written without allocation;
//     the buffer flushes into the tracer's shared spool only at its
//     capacity boundary (or an explicit Flush), amortizing the shared
//     lock the way the engine's batch buffers amortize the scheduler.
//     Tracing-off call sites hold a nil *Track, and every method is
//     nil-receiver safe, so disabled tracing costs one predictable
//     branch.
//
//  3. Bounded memory. The spool caps at a fixed event budget; events
//     beyond it are counted (kard_trace_events_dropped_total) and
//     dropped, never silently absorbed into unbounded growth.
package trace

import (
	"sync"
	"time"

	"kard/internal/obs"
)

// DefaultTrackCapacity is a track's event-buffer size when NewTracer's
// capacity argument is zero: big enough that sync-rate instrumentation
// flushes rarely, small enough that hundreds of per-cell tracks stay
// cheap.
const DefaultTrackCapacity = 1024

// DefaultSpoolBudget bounds the tracer's flushed-event spool (see
// Tracer.budget). An Event is 160 bytes, so a full spool holds 160 MiB,
// and an export copies it once more.
const DefaultSpoolBudget = 1 << 20

// Event is one trace event. The fixed, string-typed shape (no maps, no
// interfaces) keeps recording allocation-free: every field either copies
// a pointer to an existing string or a scalar.
type Event struct {
	Name string
	Cat  string
	Ph   byte // 'B' begin, 'E' end, 'i' instant, 'M' metadata
	Pid  int
	Tid  int
	Ts   int64
	// Span is the deterministic span ID ('B' events), Parent the
	// propagated parent span for cross-process stitching; 0 means none.
	Span   uint64
	Parent uint64
	// Arg is one optional key/value argument: a string (ArgStr) and/or
	// an integer (ArgInt, valid when ArgIntOK).
	ArgKey   string
	ArgStr   string
	ArgInt   int64
	ArgIntOK bool
	// Arg2Key and Arg2Int are an optional second, integer-only argument
	// (Arg2Key empty = none).
	Arg2Key string
	Arg2Int int64
	// Seq orders events of one track in the canonical export; it is
	// assigned per track from a monotonic counter.
	Seq uint64
}

// Tracer collects events from its tracks and exports them. Create one
// per traced process (or per deterministic campaign) with NewTracer.
type Tracer struct {
	traceID uint64
	seedMix uint64
	start   time.Time
	budget  int

	mu        sync.Mutex
	tracks    map[trackKey]*Track
	procNames map[int]string
	spool     []Event
	dropped   uint64
}

type trackKey struct {
	pid, tid int
}

// NewTracer creates a tracer whose trace ID (and every span ID minted
// under it) is fully determined by seed and scope. spoolBudget bounds
// the retained flushed events (0 = DefaultSpoolBudget).
func NewTracer(seed int64, scope string, spoolBudget int) *Tracer {
	if spoolBudget <= 0 {
		spoolBudget = DefaultSpoolBudget
	}
	mix := mix64(mix64(uint64(seed)) ^ hashString(scope))
	return &Tracer{
		traceID:   mix,
		seedMix:   mix,
		start:     time.Now(),
		budget:    spoolBudget,
		tracks:    map[trackKey]*Track{},
		procNames: map[int]string{},
	}
}

// TraceID returns the deterministic trace identifier.
func (tr *Tracer) TraceID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.traceID
}

// Now returns microseconds since the tracer was created — the timestamp
// source for wall-clock layers (service, cluster). Deterministic layers
// must not use it; they pass virtual clocks instead.
func (tr *Tracer) Now() int64 {
	if tr == nil {
		return 0
	}
	return time.Since(tr.start).Microseconds()
}

// ProcessName records Chrome process metadata for pid.
func (tr *Tracer) ProcessName(pid int, name string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.procNames[pid] = name
	tr.mu.Unlock()
}

// Track returns the track for (pid, tid), creating it with the given
// name and capacity (0 = DefaultTrackCapacity). The track's span-ID
// base derives from the tracer seed, the coordinates, and the name, so
// track identity — not creation order, which a worker pool randomizes —
// determines every ID minted on it. A second call with the same
// coordinates returns the existing track.
func (tr *Tracer) Track(pid, tid int, name string, capacity int) *Track {
	if tr == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultTrackCapacity
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if k, ok := tr.tracks[trackKey{pid, tid}]; ok {
		return k
	}
	k := &Track{
		tracer: tr,
		pid:    pid,
		tid:    tid,
		name:   name,
		idBase: mix64(tr.seedMix ^ hashString(name) ^ uint64(pid)<<32 ^ uint64(uint32(tid))),
		buf:    make([]Event, 0, capacity),
		lastTs: -1,
	}
	tr.tracks[trackKey{pid, tid}] = k
	return k
}

// flushLocked moves a track's buffered events into the spool. Caller
// holds tr.mu.
func (tr *Tracer) flushLocked(buf []Event) {
	room := tr.budget - len(tr.spool)
	if room <= 0 {
		tr.dropped += uint64(len(buf))
		obs.Std.TraceDropped.Add(uint64(len(buf)))
		return
	}
	if len(buf) > room {
		tr.dropped += uint64(len(buf) - room)
		obs.Std.TraceDropped.Add(uint64(len(buf) - room))
		buf = buf[:room]
	}
	tr.spool = append(tr.spool, buf...)
	obs.Std.TraceEvents.Add(uint64(len(buf)))
}

// Dropped returns how many events the spool budget discarded.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dropped
}

// snapshot flushes every track and returns a copy of the spool plus the
// metadata needed for export. Lock order is Track.mu before Tracer.mu
// everywhere (record's boundary flush holds both), so the track list is
// collected first and each track flushed outside tr.mu.
func (tr *Tracer) snapshot() ([]Event, map[int]string, map[trackKey]string) {
	tr.mu.Lock()
	tracks := make([]*Track, 0, len(tr.tracks))
	for _, k := range tr.tracks {
		tracks = append(tracks, k)
	}
	tr.mu.Unlock()
	for _, k := range tracks {
		k.Flush()
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	events := make([]Event, len(tr.spool))
	copy(events, tr.spool)
	procs := make(map[int]string, len(tr.procNames))
	for pid, n := range tr.procNames {
		procs[pid] = n
	}
	threads := make(map[trackKey]string, len(tr.tracks))
	for key, k := range tr.tracks {
		threads[key] = k.name
	}
	return events, procs, threads
}

// Track is one ordered event stream — a (pid, tid) row in the export.
// It buffers events in a fixed-capacity slice and flushes to the tracer
// at the capacity boundary. A mutex serializes writers: recording is a
// few stores under an uncontended lock, cheap enough for boundary-rate
// instrumentation (drains, sync operations, RPCs — never per access).
type Track struct {
	tracer *Tracer
	pid    int
	tid    int
	name   string
	idBase uint64

	mu      sync.Mutex
	buf     []Event
	seq     uint64
	spanSeq uint64
	lastTs  int64
}

// SpanID mints the next deterministic span ID: position spanSeq on this
// track, under this tracer's seed. Exposed for callers that need the ID
// before recording (HTTP propagation mints the ID, injects it, then
// records the span around the RPC).
func (k *Track) SpanID() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.nextSpanLocked()
}

func (k *Track) nextSpanLocked() uint64 {
	k.spanSeq++
	return mix64(k.idBase + k.spanSeq)
}

// record appends one event, clamping ts monotonically: ts < 0 means
// "just after the previous event", and a caller-supplied ts that would
// go backwards (wall-clock ties, or one simulated thread's event
// recorded after another's at a later virtual clock) is lifted to
// lastTs+1. Deterministic inputs stay
// deterministic under the clamp; every track stays monotonic.
func (k *Track) record(ev Event) {
	if k == nil {
		return
	}
	k.mu.Lock()
	if ev.Ts < 0 || ev.Ts <= k.lastTs {
		ev.Ts = k.lastTs + 1
	}
	k.lastTs = ev.Ts
	k.seq++
	ev.Seq = k.seq
	ev.Pid, ev.Tid = k.pid, k.tid
	k.buf = append(k.buf, ev)
	if len(k.buf) == cap(k.buf) {
		// Boundary flush: hand the full buffer to the tracer and reset.
		// The tracer lock is taken only here, once per capacity — the
		// amortization the obs contract asks for. Lock order (Track.mu,
		// then Tracer.mu) matches Flush and snapshot.
		k.tracer.mu.Lock()
		k.tracer.flushLocked(k.buf)
		k.tracer.mu.Unlock()
		k.buf = k.buf[:0]
	}
	k.mu.Unlock()
}

// Begin opens a span and returns its deterministic ID.
func (k *Track) Begin(name, cat string, ts int64) uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	id := k.nextSpanLocked()
	k.mu.Unlock()
	obs.Std.TraceSpans.Inc()
	k.record(Event{Name: name, Cat: cat, Ph: 'B', Ts: ts, Span: id})
	return id
}

// BeginLinked opens a span stitched to a propagated parent span.
func (k *Track) BeginLinked(name, cat string, ts int64, parent uint64, argKey, argStr string) uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	id := k.nextSpanLocked()
	k.mu.Unlock()
	obs.Std.TraceSpans.Inc()
	k.record(Event{Name: name, Cat: cat, Ph: 'B', Ts: ts, Span: id, Parent: parent,
		ArgKey: argKey, ArgStr: argStr})
	return id
}

// BeginArg opens a span carrying one argument.
func (k *Track) BeginArg(name, cat string, ts int64, argKey, argStr string) uint64 {
	return k.BeginLinked(name, cat, ts, 0, argKey, argStr)
}

// End closes the innermost open span of the given name.
func (k *Track) End(name, cat string, ts int64) {
	k.record(Event{Name: name, Cat: cat, Ph: 'E', Ts: ts})
}

// EndArg closes a span, attaching one integer argument to the end event.
func (k *Track) EndArg(name, cat string, ts int64, argKey string, argInt int64) {
	k.record(Event{Name: name, Cat: cat, Ph: 'E', Ts: ts,
		ArgKey: argKey, ArgInt: argInt, ArgIntOK: true})
}

// Instant records a point event.
func (k *Track) Instant(name, cat string, ts int64) {
	k.record(Event{Name: name, Cat: cat, Ph: 'i', Ts: ts})
}

// InstantArg records a point event with one argument. argStr may be
// empty (integer-only argument); a negative argInt is left out.
func (k *Track) InstantArg(name, cat string, ts int64, argKey, argStr string, argInt int64) {
	k.InstantArg2(name, cat, ts, argKey, argStr, argInt, "", 0)
}

// InstantArg2 records a point event with InstantArg's argument plus a
// second integer argument (arg2Key empty = none).
func (k *Track) InstantArg2(name, cat string, ts int64, argKey, argStr string, argInt int64, arg2Key string, arg2Int int64) {
	if k == nil {
		return // the engine calls it per sync operation: skip building the event
	}
	k.record(Event{Name: name, Cat: cat, Ph: 'i', Ts: ts,
		ArgKey: argKey, ArgStr: argStr, ArgInt: argInt, ArgIntOK: argInt >= 0,
		Arg2Key: arg2Key, Arg2Int: arg2Int})
}

// Flush pushes the track's buffered events to the tracer's spool early —
// the boundary call for layers that export mid-run (kardd's
// /debug/trace) rather than at teardown.
func (k *Track) Flush() {
	if k == nil {
		return
	}
	k.mu.Lock()
	if len(k.buf) > 0 {
		k.tracer.mu.Lock()
		k.tracer.flushLocked(k.buf)
		k.tracer.mu.Unlock()
		k.buf = k.buf[:0]
	}
	k.mu.Unlock()
}
