package core

import (
	"fmt"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/faultinject"
	"kard/internal/mem"
	"kard/internal/mpk"
	"kard/internal/obs"
	"kard/internal/sim"
)

// keyState is one entry of the key-section map (§5.3, Figure 3): which
// objects a Read-write key currently protects, which threads hold the key
// and with what permission, which sections use it, and when it was last
// released (for the fault-delay check of §5.5).
//
// More than one thread can hold a key read-write only under key sharing
// (§5.4 rule 3b), which is why holders is a map rather than a single
// writer slot.
type keyState struct {
	objects  map[alloc.ObjectID]*objState
	holders  map[*sim.Thread]mpk.Perm
	sections map[*sim.CriticalSection]struct{}

	// Release timestamps (RDTSCP at key release, §5.4). lastRelease
	// covers any permission; lastRWRelease only read-write holds.
	lastRelease       cycles.Time
	lastRWRelease     cycles.Time
	lastHolderTID     int
	lastHolderSite    string
	lastHolderSection *sim.CriticalSection
	lastHolderMutex   *sim.Mutex
	everReleased      bool
	everRWReleased    bool
}

// init gives the key empty object, holder and section sets.
func (ks *keyState) init() {
	ks.objects = make(map[alloc.ObjectID]*objState)
	ks.holders = make(map[*sim.Thread]mpk.Perm)
	ks.sections = make(map[*sim.CriticalSection]struct{})
}

// key returns the state of Read-write key k.
func (d *Detector) key(k mpk.Pkey) *keyState { return &d.keys[k-FirstRW] }

// keyObjInsert and keyObjDelete are the only mutators of a key's object
// set: routing every site through them keeps the pkey-occupancy gauge
// (keys currently guarding at least one object) exact across migrations,
// interleavings, recycling, and frees. d.occupied mirrors this
// detector's contribution so FlushObs can retract it at teardown.
func (d *Detector) keyObjInsert(k mpk.Pkey, os *objState) {
	ks := d.key(k)
	if len(ks.objects) == 0 {
		d.occupied++
		obs.Std.MpkPkeyOccupancy.Inc()
	}
	ks.objects[os.obj.ID] = os
}

func (d *Detector) keyObjDelete(k mpk.Pkey, id alloc.ObjectID) {
	ks := d.key(k)
	if _, ok := ks.objects[id]; !ok {
		return
	}
	delete(ks.objects, id)
	if len(ks.objects) == 0 {
		d.occupied--
		obs.Std.MpkPkeyOccupancy.Dec()
	}
}

// assigned reports whether k currently protects any object.
func (ks *keyState) assigned() bool { return len(ks.objects) > 0 }

// rwHolderOther returns a thread other than t holding the key read-write,
// or nil.
func (ks *keyState) rwHolderOther(t *sim.Thread) *sim.Thread {
	for h, p := range ks.holders {
		if h != t && p == mpk.PermRW {
			return h
		}
	}
	return nil
}

// grant gives thread t permission p on key k, updating both the thread's
// PKRU and the key-section map. Granting a weaker permission than the
// thread already has is a no-op.
func (d *Detector) grant(t *sim.Thread, k mpk.Pkey, p mpk.Perm) {
	if t.PKRU.Perm(k) >= p {
		return
	}
	t.PKRU = t.PKRU.With(k, p)
	d.key(k).holders[t] = p
}

// releaseDiff releases every key whose permission in cur exceeds its
// permission in old — the keys thread t acquired at or during the critical
// section it is leaving (§5.4 key release). The thread's PKRU is restored
// to old by the caller. cs labels the section the keys are released from,
// for race records attributed through the release-time window.
func (d *Detector) releaseDiff(t *sim.Thread, cur, old mpk.PKRU, cs *sim.CriticalSection, m *sim.Mutex) {
	now := t.Now()
	for k := FirstRW; k <= LastRW; k++ {
		cp, op := cur.Perm(k), old.Perm(k)
		if cp <= op {
			continue
		}
		ks := d.key(k)
		if op == mpk.PermNone {
			delete(ks.holders, t)
		} else {
			ks.holders[t] = op
		}
		if cp == mpk.PermRW {
			ks.lastRWRelease = now
			ks.everRWReleased = true
		}
		ks.lastRelease = now
		ks.everReleased = true
		ks.lastHolderTID = t.ID()
		ks.lastHolderSection = cs
		ks.lastHolderMutex = m
		if cs != nil {
			ks.lastHolderSite = cs.Site
		} else {
			ks.lastHolderSite = "<outside section>"
		}
	}
}

// tryAcquire attempts the key-enforced acquisition of Algorithm 1:
//   - read-write permission only if no other thread holds the key
//     (k ∈ K_F);
//   - read-only permission only if no other thread holds it read-write
//     (k ∈ K_F ∪ K_R).
//
// It returns true when the permission was granted.
func (d *Detector) tryAcquire(t *sim.Thread, k mpk.Pkey, p mpk.Perm) bool {
	ks := d.key(k)
	switch p {
	case mpk.PermRW:
		for h := range ks.holders {
			if h != t {
				return false
			}
		}
	case mpk.PermRead:
		if ks.rwHolderOther(t) != nil {
			return false
		}
	}
	d.grant(t, k, p)
	return true
}

// assignKey chooses a Read-write domain key for a newly identified shared
// object, following the three rules of §5.4:
//
//  1. reuse a key the faulting thread already holds read-write;
//  2. otherwise take an unassigned key;
//  3. otherwise recycle an assigned key no thread holds, moving its
//     objects to the Read-only domain; or, if every key is held, share a
//     key — preferring one whose sections do not touch this object.
//
// It protects the object with the chosen key, updates the key-section and
// section-object maps, grants the thread read-write permission, and
// returns the accumulated cost. cs may be nil (non-ILU extension, outside
// any critical section).
func (d *Detector) assignKey(t *sim.Thread, os *objState, cs *sim.CriticalSection) (mpk.Pkey, cycles.Duration) {
	cost := cycles.MapLookup

	last := d.lastHW()
	pick := func() (mpk.Pkey, bool) {
		// Rule 1: reuse a held read-write key.
		for k := FirstRW; k <= last; k++ {
			if t.PKRU.Perm(k) == mpk.PermRW {
				return k, true
			}
		}
		// Rule 2: an unassigned key.
		for k := FirstRW; k <= last; k++ {
			if !d.key(k).assigned() {
				return k, true
			}
		}
		// Rule 3a: recycle a key no thread holds. Among those, take the
		// least-recently-released one — its objects belong to the
		// sections that have been quiet longest, so recycling it
		// causes the fewest re-migration faults.
		var victim mpk.Pkey
		var victimTime cycles.Time
		found := false
		for k := FirstRW; k <= last; k++ {
			ks := d.key(k)
			if len(ks.holders) != 0 {
				continue
			}
			if !found || ks.lastRelease < victimTime {
				victim, victimTime, found = k, ks.lastRelease, true
			}
		}
		if found {
			d.counts.KeyRecyclingEvents++
			cost += d.recycle(t, victim)
			return victim, true
		}
		// All keys held: with the §8 software fallback, overflow to a
		// virtual key instead of sharing.
		if d.opts.SoftwareFallback {
			return 0, false
		}
		// Rule 3b: share. Prefer a key none of whose using sections is
		// the current one, so disjoint sections share (§7.3).
		best := FirstRW
		for k := FirstRW; k <= last; k++ {
			if cs == nil {
				break
			}
			if _, used := d.key(k).sections[cs]; !used {
				best = k
				break
			}
		}
		d.counts.KeySharingEvents++
		return best, true
	}

	k, hw := pick()
	if hw {
		// Taking a hardware key models a pkey_alloc-backed reservation;
		// an injected allocation failure degrades the object instead of
		// aborting the run.
		if err := d.eng.Space().Injector().Fail(faultinject.SitePkeyAlloc); err != nil {
			d.counts.KeyAllocDegraded++
			d.eng.Space().Injector().NoteDegraded()
			obs.Std.CoreKeyDegrades.Inc()
			obs.Flight.Recordf(obs.EvPkeyDegrade, "pkey_alloc for %s degraded to read-only domain: %v", os.obj, err)
			hw = false
		}
	}
	if !hw {
		if d.opts.SoftwareFallback {
			return 0, cost + d.assignSoft(t, os, cs)
		}
		// No hardware key and no software fallback: degrade to the
		// Read-only domain. The next write faults on k14 and re-attempts
		// the migration, so detection continues with one extra fault per
		// degradation instead of a hard failure.
		os.domain = DomainReadOnly
		os.key = 0
		os.unprotected = false
		noteDomain(os, t, int(KeyRO))
		cost += d.protect(os.obj, KeyRO)
		return 0, cost
	}
	ks := d.key(k)
	d.keyObjInsert(k, os)
	if cs != nil {
		ks.sections[cs] = struct{}{}
	}
	os.domain = DomainReadWrite
	os.key = k
	os.unprotected = false
	noteDomain(os, t, int(k))
	if !os.everRW {
		os.everRW = true
		d.counts.SharedRWEver++
	}
	cost += d.protect(os.obj, k)
	// The grant here is reactive: the fault handler updates the stored
	// thread context instead of executing WRPKRU (§5.4), so no WRPKRU
	// cost is charged. The grant bypasses tryAcquire: under rule 3b the
	// key is deliberately shared.
	d.grant(t, k, mpk.PermRW)
	return k, cost
}

// recycle moves every object protected by k to the Read-only domain and
// clears the key's assignment. Recycling costs one pkey_mprotect per moved
// object but preserves accuracy: future writes fault and re-migrate
// (§5.4). t is the thread whose key demand triggered the recycling; its
// clock stamps the domain-history steps.
func (d *Detector) recycle(t *sim.Thread, k mpk.Pkey) cycles.Duration {
	ks := d.key(k)
	var cost cycles.Duration
	for _, os := range ks.objects {
		os.domain = DomainReadOnly
		os.key = 0
		noteDomain(os, t, int(KeyRO))
		if !os.unprotected {
			cost += d.protect(os.obj, KeyRO)
		}
	}
	obs.Std.CoreKeyRecycles.Inc()
	obs.Flight.Recordf(obs.EvPkeyRecycle, "key %s recycled, %d objects moved to read-only domain", k, len(ks.objects))
	if len(ks.objects) > 0 {
		d.occupied--
		obs.Std.MpkPkeyOccupancy.Dec()
	}
	ks.objects = make(map[alloc.ObjectID]*objState)
	// Sections that relied on k must re-identify their objects.
	for cs := range ks.sections {
		if ss := sectionStateOf(cs); ss != nil {
			delete(ss.keysNeeded, k)
		}
	}
	ks.sections = make(map[*sim.CriticalSection]struct{})
	return cost
}

// protectMaxRetries bounds the in-handler retries of a transiently failing
// pkey_mprotect; protectRetryBackoff is the first retry's simulated-cycle
// backoff, doubled per attempt.
const (
	protectMaxRetries                   = 3
	protectRetryBackoff cycles.Duration = 1000
)

// protect retags the object's pages with key k via pkey_mprotect.
//
// Failure policy: a transiently failing syscall (injected EAGAIN) is
// retried up to protectMaxRetries times with doubling simulated backoff. A
// persistently injected failure degrades gracefully — the page tag stays
// stale, so future accesses to the object fault and re-enter the handler,
// which re-attempts the migration; only the counter records the event. Any
// non-injected error means the object's pages vanished under us — an
// engine invariant violation surfaced through the run error, not a panic.
func (d *Detector) protect(o *alloc.Object, k mpk.Pkey) cycles.Duration {
	space := d.eng.Space()
	cost, err := mpk.PkeyMprotect(space, o.FirstPage.Base(), o.NumPages*mem.PageSize, k)
	backoff := protectRetryBackoff
	for r := 0; err != nil && faultinject.IsTransient(err) && r < protectMaxRetries; r++ {
		d.counts.ProtectRetries++
		space.Injector().NoteRetry()
		cost += backoff
		backoff <<= 1
		var dcost cycles.Duration
		dcost, err = mpk.PkeyMprotect(space, o.FirstPage.Base(), o.NumPages*mem.PageSize, k)
		cost += dcost
	}
	if err != nil {
		if faultinject.IsInjected(err) {
			d.counts.ProtectDegraded++
			space.Injector().NoteDegraded()
			obs.Std.CoreKeyDegrades.Inc()
			obs.Flight.Recordf(obs.EvPkeyDegrade, "pkey_mprotect of %s with %s degraded after retries: %v", o, k, err)
			return cost
		}
		d.eng.FailRun(fmt.Errorf("core: protecting %s with %s: %w", o, k, err))
	}
	return cost
}

// conflict describes the concurrent holder that makes a fault a potential
// race.
type conflict struct {
	tid     int
	site    string
	current bool        // false when attributed through the release-time window
	thread  *sim.Thread // non-nil only for current holders
}

// sectionAccesses reports whether any of the sections a holder currently
// executes (or the given released-from section) has the object in its
// section-object map. Kard consults the map during fault analysis so that
// a key held by a section that never touches this object — the normal
// situation under key sharing (§5.4, §7.3) — is not misread as a race.
func sectionAccesses(cs *sim.CriticalSection, id alloc.ObjectID) bool {
	ss := sectionStateOf(cs)
	if ss == nil {
		return false
	}
	_, ok := ss.objects[id]
	return ok
}

func holderTouches(h *sim.Thread, id alloc.ObjectID) bool {
	for _, se := range h.Sections {
		if sectionAccesses(se.Section, id) {
			return true
		}
	}
	return false
}

// conflictHolder implements the race test of Algorithm 1 lines 10–21 plus
// the fault-delay window of §5.5: a read of o without a key races a
// read-write holder of o's key; a write races any holder. A key released
// less than the fault-handling delay before the fault still counts as
// held. A holder whose critical sections never access o does not conflict;
// it merely shares the key.
func (d *Detector) conflictHolder(t *sim.Thread, k mpk.Pkey, kind mpk.AccessKind, now cycles.Time, os *objState) *conflict {
	ks := d.key(k)
	id := os.obj.ID
	minPerm := mpk.PermRead // a write conflicts with any holder
	if kind == mpk.Read {
		minPerm = mpk.PermRW // a read conflicts only with a read-write holder
	}
	for h, p := range ks.holders {
		if h == t || p < minPerm {
			continue
		}
		if !holderTouches(h, id) {
			continue
		}
		return &conflict{tid: h.ID(), site: d.sectionSiteOf(h), current: true, thread: h}
	}
	// Release-time window (§5.5): the key may have been dropped between
	// the fault and the handler.
	released, everReleased := ks.lastRelease, ks.everReleased
	if kind == mpk.Read {
		released, everReleased = ks.lastRWRelease, ks.everRWReleased
	}
	if everReleased && now.Sub(released) <= d.opts.FaultWindow && ks.lastHolderTID != t.ID() {
		// Two accesses ordered by the same lock cannot race: if the
		// faulting thread holds the very mutex the key was released
		// under, the release happened before this thread's acquire.
		if ks.lastHolderMutex != nil && t.Holds(ks.lastHolderMutex) {
			return nil
		}
		if ks.lastHolderSection == nil || sectionAccesses(ks.lastHolderSection, id) {
			return &conflict{tid: ks.lastHolderTID, site: ks.lastHolderSite}
		}
	}
	return nil
}

// sectionSiteOf labels the section a thread is executing, for race
// records.
func (d *Detector) sectionSiteOf(t *sim.Thread) string {
	if cs := t.CurrentSection(); cs != nil {
		return cs.Site
	}
	return "<no section>"
}

// serialize models Kard's internal runtime synchronization (§5.4): the
// calling thread waits for the runtime lock, holds it for hold cycles,
// and pays both the wait and the hold. With few threads the lock is
// almost always free; with many threads entering critical sections at a
// high rate it saturates — the scalability cliff of §7.4.
func (d *Detector) serialize(t *sim.Thread, hold cycles.Duration) cycles.Duration {
	now := t.Now()
	start := cycles.Max(now, d.runtimeFree)
	d.runtimeFree = start.Add(hold)
	return start.Sub(now) + hold
}
