// Package hb implements a ThreadSanitizer-style dynamic data race detector
// based on happens-before tracking with vector clocks. It is the "TSan"
// comparator of the evaluation (Table 3's TSan column, Table 6's TSan
// reports): every memory access pays an instrumentation cost, every
// synchronization operation joins clocks, and conflicting accesses that
// are not ordered by the happens-before relation are reported as races.
//
// Shadow-state representation: instead of per-8-byte shadow cells, the
// detector keeps a small ring of recent access summaries per object, each
// an epoch (thread, scalar clock) plus the accessed byte range and whether
// the accessor held any lock (for the ILU / non-ILU split of Table 6).
// Races older than the ring depth can be missed, like TSan's 4-slot shadow
// cells can; the depth is configurable. The ring (or, in Exact mode, the
// object's granule map) hangs off the object itself, in
// alloc.Object.DetectorState, as thread clocks hang off sim.Thread: the
// first access creates it and the free drops it.
package hb

import (
	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mpk"
	"kard/internal/sim"
)

// VC is a vector clock indexed by thread ID.
type VC []uint64

// get returns the component for thread id.
func (v VC) get(id int) uint64 {
	if id < len(v) {
		return v[id]
	}
	return 0
}

// set grows the clock as needed and stores c for thread id.
func (v *VC) set(id int, c uint64) {
	for len(*v) <= id {
		*v = append(*v, 0)
	}
	(*v)[id] = c
}

// join sets v to the element-wise maximum of v and w.
func (v *VC) join(w VC) {
	for i, c := range w {
		if c > v.get(i) {
			v.set(i, c)
		}
	}
}

// clone returns a copy of v.
func (v VC) clone() VC {
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// epoch is a scalar timestamp of one thread, the FastTrack-style compact
// representation of "this access happened at clock c on thread tid".
type epoch struct {
	tid   int
	clock uint64
}

// happensBefore reports whether the epoch is ordered before a thread whose
// current vector clock is v.
func (e epoch) happensBefore(v VC) bool { return e.clock <= v.get(e.tid) }

// Options configure the detector.
type Options struct {
	// ShadowDepth is the number of recent accesses remembered per
	// object (default 8).
	ShadowDepth int

	// Exact switches to per-8-byte-granule shadow cells (four slots per
	// granule, like real TSan's shadow words) instead of the per-object
	// ring. Exact mode cannot miss a race to ring eviction but pays
	// bookkeeping per granule, so it is meant for directed tests rather
	// than the large workload models.
	Exact bool
}

// Detector is the happens-before race detector.
type Detector struct {
	opts  Options
	eng   *sim.Engine
	races []sim.Race
	seen  map[dedupeKey]struct{}
}

// granule is the exact-mode shadow state of one 8-byte unit: a four-slot
// ring of access epochs, matching TSan's shadow-word layout.
type granule struct {
	cells [4]accessInfo
	next  int
}

type dedupeKey struct {
	obj      alloc.ObjectID
	lo       uint64
	kind     mpk.AccessKind
	tid, oid int
}

// shadow is the per-object access history ring, kept in the object's
// DetectorState.
type shadow struct {
	recent []accessInfo
	next   int
}

type accessInfo struct {
	valid   bool
	ep      epoch
	lo, hi  uint64
	kind    mpk.AccessKind
	inCS    bool
	site    string
	section string
}

// threadClock is the per-thread vector clock state.
type threadClock struct {
	vc VC
}

// shadowMetadataBytes approximates TSan's shadow memory cost per tracked
// object. Real TSan shadows every 8 application bytes with 4×8-byte
// cells — a 4× blow-up we charge per object instead.
const shadowMetadataBytes = 256

// New creates a happens-before detector.
func New(opts Options) *Detector {
	if opts.ShadowDepth <= 0 {
		opts.ShadowDepth = 8
	}
	return &Detector{
		opts: opts,
		seen: make(map[dedupeKey]struct{}),
	}
}

// Name implements sim.Detector.
func (d *Detector) Name() string { return "tsan" }

// Setup implements sim.Detector.
func (d *Detector) Setup(e *sim.Engine) { d.eng = e }

// ThreadStarted implements sim.Detector.
func (d *Detector) ThreadStarted(t *sim.Thread) {
	tc := &threadClock{}
	tc.vc.set(t.ID(), 1)
	t.DetectorState = tc
}

// ThreadExited implements sim.Detector.
func (d *Detector) ThreadExited(t *sim.Thread) {}

// ThreadSpawned implements sim.Detector: the child inherits the parent's
// clock; the parent ticks so later parent work is unordered with the
// child.
func (d *Detector) ThreadSpawned(parent, child *sim.Thread) {
	pc, cc := clockOf(parent), clockOf(child)
	cc.vc.join(pc.vc)
	cc.vc.set(child.ID(), cc.vc.get(child.ID())+1)
	pc.vc.set(parent.ID(), pc.vc.get(parent.ID())+1)
}

// ThreadJoined implements sim.Detector: the joiner absorbs the target's
// final clock.
func (d *Detector) ThreadJoined(joiner, target *sim.Thread) {
	clockOf(joiner).vc.join(clockOf(target).vc)
}

func clockOf(t *sim.Thread) *threadClock { return t.DetectorState.(*threadClock) }

// ObjectAllocated implements sim.Detector: TSan instruments allocator
// calls cheaply; the malloc itself orders after the allocating thread.
func (d *Detector) ObjectAllocated(t *sim.Thread, o *alloc.Object) cycles.Duration {
	d.eng.Space().ChargeMetadata(shadowMetadataBytes + int64(o.Size)/2)
	return cycles.AtomicOp
}

// ObjectFreed implements sim.Detector: the object's shadow state goes
// with it.
func (d *Detector) ObjectFreed(t *sim.Thread, o *alloc.Object) cycles.Duration {
	o.DetectorState = nil
	d.eng.Space().ChargeMetadata(-(shadowMetadataBytes + int64(o.Size)/2))
	return cycles.AtomicOp
}

// CSEnter implements sim.Detector: acquire joins the mutex's release
// clock.
func (d *Detector) CSEnter(t *sim.Thread, cs *sim.CriticalSection, m *sim.Mutex) cycles.Duration {
	if mv, ok := m.DetectorState.(VC); ok {
		clockOf(t).vc.join(mv)
	}
	return cycles.TSanSync
}

// CSExit implements sim.Detector: release publishes the thread's clock to
// the mutex and ticks the thread.
func (d *Detector) CSExit(t *sim.Thread, cs *sim.CriticalSection, m *sim.Mutex) cycles.Duration {
	tc := clockOf(t)
	m.DetectorState = tc.vc.clone()
	tc.vc.set(t.ID(), tc.vc.get(t.ID())+1)
	return cycles.TSanSync
}

// BarrierPassed implements sim.Detector: all participants join a common
// clock and tick.
func (d *Detector) BarrierPassed(ts []*sim.Thread) cycles.Duration {
	var all VC
	for _, t := range ts {
		all.join(clockOf(t).vc)
	}
	for _, t := range ts {
		tc := clockOf(t)
		tc.vc = all.clone()
		tc.vc.set(t.ID(), tc.vc.get(t.ID())+1)
	}
	return cycles.TSanSync
}

// OnAccess implements sim.Detector: compare against the object's recent
// access history, report unordered conflicts, record the access. The cost
// is per 8-byte unit — the compiler-inserted instrumentation that makes
// TSan two orders of magnitude slower than Kard (§7.2).
func (d *Detector) OnAccess(a *sim.Access) cycles.Duration {
	if d.opts.Exact {
		return d.onAccessExact(a)
	}
	t := a.Thread
	tc := clockOf(t)
	sh, ok := a.Object.DetectorState.(*shadow)
	if !ok {
		sh = &shadow{recent: make([]accessInfo, d.opts.ShadowDepth)}
		a.Object.DetectorState = sh
	}
	off := a.Offset()
	cur := accessInfo{
		valid:   true,
		ep:      epoch{tid: t.ID(), clock: tc.vc.get(t.ID())},
		lo:      off,
		hi:      off + a.Size,
		kind:    a.Kind,
		inCS:    t.InCriticalSection(),
		site:    a.Site,
		section: sectionLabel(t),
	}
	for i := range sh.recent {
		prev := &sh.recent[i]
		if !prev.valid || prev.ep.tid == t.ID() {
			continue
		}
		if prev.hi <= cur.lo || cur.hi <= prev.lo {
			continue // disjoint ranges
		}
		if prev.kind != mpk.Write && cur.kind != mpk.Write {
			continue // read-read
		}
		if prev.ep.happensBefore(tc.vc) {
			continue // ordered
		}
		d.report(a, prev, cur)
	}
	sh.recent[sh.next] = cur
	sh.next = (sh.next + 1) % len(sh.recent)
	return cycles.Duration(a.Units()) * cycles.TSanAccess
}

func sectionLabel(t *sim.Thread) string {
	if cs := t.CurrentSection(); cs != nil {
		return cs.Site
	}
	return "<no section>"
}

func (d *Detector) report(a *sim.Access, prev *accessInfo, cur accessInfo) {
	key := dedupeKey{obj: a.Object.ID, lo: cur.lo, kind: cur.kind, tid: cur.ep.tid, oid: prev.ep.tid}
	if _, dup := d.seen[key]; dup {
		return
	}
	d.seen[key] = struct{}{}
	r := sim.Race{
		Detector:     "tsan",
		Object:       a.Object,
		Offset:       cur.lo,
		Kind:         cur.kind,
		Thread:       cur.ep.tid,
		Site:         cur.site,
		Section:      cur.section,
		OtherThread:  prev.ep.tid,
		OtherSite:    prev.site,
		OtherSection: prev.section,
		ILU:          prev.inCS || cur.inCS,
		Time:         a.Thread.Now(),
	}
	r.Provenance = a.Thread.Engine().BuildProvenance(&r)
	r.Provenance.First.Kind = prev.kind.String()
	d.races = append(d.races, r)
}

// onAccessExact is the per-granule shadow path: each touched 8-byte unit
// keeps its own four-slot cell ring.
func (d *Detector) onAccessExact(a *sim.Access) cycles.Duration {
	t := a.Thread
	tc := clockOf(t)
	gm, ok := a.Object.DetectorState.(map[uint64]*granule)
	if !ok {
		gm = make(map[uint64]*granule)
		a.Object.DetectorState = gm
	}
	off := a.Offset()
	cur := accessInfo{
		valid:   true,
		ep:      epoch{tid: t.ID(), clock: tc.vc.get(t.ID())},
		lo:      off,
		hi:      off + a.Size,
		kind:    a.Kind,
		inCS:    t.InCriticalSection(),
		site:    a.Site,
		section: sectionLabel(t),
	}
	for g := off / 8; g <= (off+a.Size-1)/8; g++ {
		gs := gm[g]
		if gs == nil {
			gs = &granule{}
			gm[g] = gs
		}
		for i := range gs.cells {
			prev := &gs.cells[i]
			if !prev.valid || prev.ep.tid == t.ID() {
				continue
			}
			if prev.kind != mpk.Write && cur.kind != mpk.Write {
				continue
			}
			if prev.ep.happensBefore(tc.vc) {
				continue
			}
			d.report(a, prev, cur)
		}
		gs.cells[gs.next] = cur
		gs.next = (gs.next + 1) % len(gs.cells)
	}
	return cycles.Duration(a.Units()) * cycles.TSanAccess
}

// Finish implements sim.Detector.
func (d *Detector) Finish() {}

// Races implements sim.Detector.
func (d *Detector) Races() []sim.Race { return d.races }

// EpochCheck implements sim.EpochDetector: an access may commit inside a
// parallel epoch only if replaying it cannot report a race and touches
// nothing outside its object's shadow ring. Three veto classes:
//
//   - Exact mode: the per-granule shadow map inserts granules lazily.
//   - Object with no ring yet: the first access allocates the ring, which
//     is object-local and so would be safe to create inside an epoch;
//     the veto stays because lifting it would change which epochs are
//     admitted, and with them the engine's epoch counters. One vetoed
//     epoch replays the access on the scalar path and creates the ring.
//   - Any surviving ring conflict: the same scan OnAccess performs. A
//     conflict here would call report; epochs never report.
//
// The verdict stays valid through the epoch: the only ring writes before
// the commit are this thread's own (the engine guarantees one thread per
// object), and own-tid entries are skipped by the scan — same-thread
// overwrites can only evict conflicting entries, never add them, and the
// thread's vector clock is frozen (no synchronization inside an epoch).
func (d *Detector) EpochCheck(a *sim.Access) bool {
	if d.opts.Exact {
		return false
	}
	sh, ok := a.Object.DetectorState.(*shadow)
	if !ok {
		return false
	}
	t := a.Thread
	tc := clockOf(t)
	off := a.Offset()
	lo, hi := off, off+a.Size
	for i := range sh.recent {
		prev := &sh.recent[i]
		if !prev.valid || prev.ep.tid == t.ID() {
			continue
		}
		if prev.hi <= lo || hi <= prev.lo {
			continue // disjoint ranges
		}
		if prev.kind != mpk.Write && a.Kind != mpk.Write {
			continue // read-read
		}
		if prev.ep.happensBefore(tc.vc) {
			continue // ordered
		}
		return false // OnAccess would report
	}
	return true
}

// EpochCost implements sim.EpochDetector: the per-unit instrumentation
// charge, independent of detector state and thread clocks.
func (d *Detector) EpochCost(a *sim.Access) cycles.Duration {
	return cycles.Duration(a.Units()) * cycles.TSanAccess
}

var (
	_ sim.Detector      = (*Detector)(nil)
	_ sim.EpochDetector = (*Detector)(nil)
)
