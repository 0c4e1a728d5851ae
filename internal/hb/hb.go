// Package hb implements a ThreadSanitizer-style dynamic data race detector
// based on happens-before tracking with vector clocks. It is the "TSan"
// comparator of the evaluation (Table 3's TSan column, Table 6's TSan
// reports): every memory access pays an instrumentation cost, every
// synchronization operation joins clocks, and conflicting accesses that
// are not ordered by the happens-before relation are reported as races.
//
// Shadow-state representation: instead of per-8-byte shadow cells, the
// detector keeps a small ring of recent access summaries per object, each
// an epoch (thread, scalar clock) plus the accessed byte range and the
// accessor's innermost critical section, if any (for the ILU / non-ILU
// split of Table 6). Races older than the ring depth can be missed, like
// TSan's 4-slot shadow cells can; the depth is configurable. The ring (or,
// in Exact mode, the object's granule map) hangs off the object itself,
// in alloc.Object.DetectorState, as thread clocks hang off sim.Thread: the
// first access creates it and the free drops it.
//
// A shadow entry is a flat, pointer-free 40 bytes: the access site is an
// index into the detector's interned label table, and the section is its
// sim.CriticalSection ID, turned back into labels only when a race is
// reported. Rings and granules therefore hold no pointers: the garbage
// collector never scans them, and storing an entry needs no write
// barrier.
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

	// sites interns access-site labels for shadow entries: siteIdx maps
	// a label to its index in sites, and lastSite/lastIdx cache the most
	// recent lookup, which a run of accesses from one site hits without
	// hashing. Index 0 is the empty label, so the cache starts valid.
	sites    []string
	siteIdx  map[string]uint32
	lastSite string
	lastIdx  uint32
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
	tid, oid int32
}

// shadow is the per-object access history ring, kept in the object's
// DetectorState.
type shadow struct {
	recent []accessInfo
	next   int
}

// accessInfo is one shadow entry. clock and tid form the FastTrack-style
// epoch, the compact "this access happened at clock c on thread tid";
// they sit flat in the entry because a nested struct's padding would grow
// it to 48 bytes. TestShadowEntryLayout pins the size and the absence of
// pointers.
type accessInfo struct {
	clock   uint64
	lo, hi  uint64
	tid     int32
	site    uint32 // index into Detector.sites
	section int32  // sim.CriticalSection.ID; 0 outside any section
	kind    mpk.AccessKind
	valid   bool
}

// happensBefore reports whether the entry's epoch is ordered before a
// thread whose current vector clock is v.
func (p *accessInfo) happensBefore(v VC) bool { return p.clock <= v.get(int(p.tid)) }

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
		opts:    opts,
		seen:    make(map[dedupeKey]struct{}),
		sites:   []string{""},
		siteIdx: map[string]uint32{"": 0},
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
	cur := d.entry(a, tc)
	for i := range sh.recent {
		prev := &sh.recent[i]
		if !prev.valid || prev.tid == cur.tid {
			continue
		}
		if prev.hi <= cur.lo || cur.hi <= prev.lo {
			continue // disjoint ranges
		}
		if prev.kind != mpk.Write && cur.kind != mpk.Write {
			continue // read-read
		}
		if prev.happensBefore(tc.vc) {
			continue // ordered
		}
		d.report(a, prev, &cur)
	}
	sh.recent[sh.next] = cur
	sh.next = (sh.next + 1) % len(sh.recent)
	return cycles.Duration(a.Units()) * cycles.TSanAccess
}

// entry builds the shadow entry for access a by a thread whose clock
// state is tc.
func (d *Detector) entry(a *sim.Access, tc *threadClock) accessInfo {
	t := a.Thread
	var section int32
	if cs := t.CurrentSection(); cs != nil {
		section = int32(cs.ID)
	}
	off := a.Offset()
	return accessInfo{
		clock:   tc.vc.get(t.ID()),
		lo:      off,
		hi:      off + a.Size,
		tid:     int32(t.ID()),
		site:    d.siteIndex(a.Site),
		section: section,
		kind:    a.Kind,
		valid:   true,
	}
}

// siteIndex interns an access-site label.
func (d *Detector) siteIndex(site string) uint32 {
	if site == d.lastSite {
		return d.lastIdx
	}
	idx, ok := d.siteIdx[site]
	if !ok {
		idx = uint32(len(d.sites))
		d.sites = append(d.sites, site)
		d.siteIdx[site] = idx
	}
	d.lastSite, d.lastIdx = site, idx
	return idx
}

// sectionLabel names the critical section an entry recorded.
func (d *Detector) sectionLabel(id int32) string {
	if id == 0 {
		return "<no section>"
	}
	return d.eng.Sections()[id-1].Site
}

func (d *Detector) report(a *sim.Access, prev, cur *accessInfo) {
	key := dedupeKey{obj: a.Object.ID, lo: cur.lo, kind: cur.kind, tid: cur.tid, oid: prev.tid}
	if _, dup := d.seen[key]; dup {
		return
	}
	d.seen[key] = struct{}{}
	r := sim.Race{
		Detector:     "tsan",
		Object:       a.Object,
		Offset:       cur.lo,
		Kind:         cur.kind,
		Thread:       int(cur.tid),
		Site:         d.sites[cur.site],
		Section:      d.sectionLabel(cur.section),
		OtherThread:  int(prev.tid),
		OtherSite:    d.sites[prev.site],
		OtherSection: d.sectionLabel(prev.section),
		ILU:          prev.section != 0 || cur.section != 0,
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
	cur := d.entry(a, tc)
	for g := cur.lo / 8; g <= (cur.hi-1)/8; g++ {
		gs := gm[g]
		if gs == nil {
			gs = &granule{}
			gm[g] = gs
		}
		for i := range gs.cells {
			prev := &gs.cells[i]
			if !prev.valid || prev.tid == cur.tid {
				continue
			}
			if prev.kind != mpk.Write && cur.kind != mpk.Write {
				continue
			}
			if prev.happensBefore(tc.vc) {
				continue
			}
			d.report(a, prev, &cur)
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

// EpochCheck is never called: the engine no longer runs reconciliation
// epochs.
//
// Deprecated: kept so Detector still satisfies sim.EpochDetector for the
// perfbench module; it goes with that interface.
func (d *Detector) EpochCheck(*sim.Access) bool { return false }

// EpochCost is never called; see EpochCheck.
//
// Deprecated: it goes with sim.EpochDetector.
func (d *Detector) EpochCost(*sim.Access) cycles.Duration { return 0 }

var (
	_ sim.Detector      = (*Detector)(nil)
	_ sim.EpochDetector = (*Detector)(nil)
)
