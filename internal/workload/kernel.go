package workload

import (
	"fmt"

	"kard/internal/alloc"
	"kard/internal/cycles"
	"kard/internal/mpk"
	"kard/internal/sim"
)

// app is the generic application model driving all 19 workloads. Its
// shape follows what the paper's instrumentation observes: a pool of
// sharable objects, a set of lock call sites (critical sections), worker
// threads that repeatedly enter sections to touch the sections' shared
// objects, and a much larger volume of unsynchronized work in between.
//
// Calibration (see calibrate): the paper's Table 3 row fixes the object
// counts, section counts and entry counts directly; per-entry computation
// is derived from the row's baseline time; per-entry memory-access volume
// from the row's TSan overhead; and the number of pool objects touched per
// entry from the row's Alloc overhead (which the paper attributes to the
// allocator's page spreading, §7.2). Everything the Kard and Alloc columns
// then show is produced by the simulator's cost model, not dialed in.
type app struct {
	spec Spec

	// Knobs (zero values get defaults in prepare/calibrate).
	fillerSize      uint64 // filler heap object size; 0 = derive from PaperRSSKB
	sharedSize      uint64 // shared object size (default 64 B)
	phases          int    // barrier phases per run (SPLASH-style); 0 = none
	nestEvery       int    // enter a nested section every n entries; 0 = never
	churnPerMile    int    // heap alloc+free pairs per 1000 entries (NGINX-style churn)
	churnSizes      []uint64
	roReadsPerEntry int     // reads from the read-only pool per entry (default 1 if pool nonempty)
	rwFromGlobals   int     // take the first n read-write shared objects from the globals
	hotOverride     int     // size of the hot section set; 0 = spec.ActiveCS
	touchPool       int     // sweep working-set size in objects; 0 = whole pool
	upfrontHeap     int     // heap objects allocated before the run; 0 = all of spec.HeapObjects
	coldEvery       int     // one entry in coldEvery goes to a cold (non-hot) section; default 24
	cpeOverride     float64 // per-entry baseline cycles; 0 = derive from BaselineSeconds

	// Hooks for the real-world models.
	prepareHook func(a *app, e *sim.Engine)
	insideCS    func(a *app, w *sim.Thread, tid int, entry uint64, sec int)
	outsideCS   func(a *app, w *sim.Thread, tid int, entry uint64)
	mainLoop    func(a *app, m *sim.Thread, workers []*sim.Thread)
	preWorkers  func(a *app, m *sim.Thread, threads int)

	// Run state.
	eng         *sim.Engine
	globals     []*alloc.Object
	rw          []*alloc.Object   // read-write shared objects, indexed by section
	rwBySec     [][]*alloc.Object // section → its RW objects
	ro          []*alloc.Object   // read-only pool (read inside sections)
	filler      []*alloc.Object   // pool objects touched outside sections
	private     []*alloc.Object   // per-worker scratch buffer
	mutexes     []*sim.Mutex
	nestMu      *sim.Mutex
	nestObj     *alloc.Object
	roCursor    uint64
	sites       []string
	updateSites []string
	lookupSites []string
	// Access and lock sites of the worker loop, built once per run.
	churnSite, churnInitSite, csInnerSite string
	innerUpdateSite, poolSite, streamSite string

	// Calibration results.
	cyclesPerEntry float64
	unitsPerEntry  float64
	touchPerEntry  int // filler objects swept per entry
	csCompute      cycles.Duration
	outCompute     cycles.Duration
	remBytes       uint64 // remainder access bytes on the private buffer
	entriesAt      func(threads int) uint64
}

const privateBufBytes = 128 << 10

// Spec implements Workload.
func (a *app) Spec() Spec { return a.spec }

// Prepare implements Workload: register globals.
func (a *app) Prepare(e *sim.Engine) {
	a.eng = e
	for i := 0; i < a.spec.GlobalObjects; i++ {
		a.globals = append(a.globals, e.Global(32, fmt.Sprintf("%s.g%d", a.spec.Name, i)))
	}
	if a.prepareHook != nil {
		a.prepareHook(a, e)
	}
}

// calibrate derives the per-entry cost parameters from the Table 3 row.
func (a *app) calibrate() {
	s := a.spec
	totalWork := float64(cycles.FromSeconds(s.BaselineSeconds)) * 4 // measured at 4 threads
	a.cyclesPerEntry = totalWork / float64(s.CSEntries)
	if a.cpeOverride > 0 {
		a.cyclesPerEntry = a.cpeOverride
	}

	// Per-entry access volume from the TSan overhead target.
	tsanExtra := s.PaperTSanPct / 100 * a.cyclesPerEntry
	units := (tsanExtra - 2*float64(cycles.TSanSync)) / float64(cycles.TSanAccess)
	if maxU := 0.92 * a.cyclesPerEntry / float64(cycles.Access); units > maxU {
		units = maxU
	}
	if units < 2 {
		units = 2
	}
	a.unitsPerEntry = units

	// Pool objects touched per entry from the Alloc overhead target:
	// the paper attributes Alloc's cost to each object living on its
	// own page(s), i.e. one extra dTLB walk per touched object.
	touch := s.PaperAllocPct / 100 * a.cyclesPerEntry / float64(cycles.TLBMiss)
	if touch < 1 {
		touch = 1
	}
	if a.churnPerMile > 0 {
		// Churn already models the allocation cost; don't double
		// count.
		touch = 1
	}
	if max := float64(len(a.filler)); touch > max {
		touch = max
	}
	if touch > 4096 {
		touch = 4096
	}
	a.touchPerEntry = int(touch)

	// Split the access volume: a few units inside the section, the
	// touched pool objects, remainder on the private buffer.
	inCS := float64(8 * (1 + a.roReads()))
	poolUnits := float64(a.touchPerEntry) * float64(a.sharedSize) / 8
	rem := units - inCS - poolUnits
	if rem < 0 {
		rem = 0
	}
	a.remBytes = uint64(rem) * 8

	// Residual computation.
	compute := a.cyclesPerEntry - units*float64(cycles.Access) - 2*float64(cycles.LockUncontended)
	if compute < 0 {
		compute = 0
	}
	a.csCompute = cycles.Duration(compute * 0.04)
	a.outCompute = cycles.Duration(compute * 0.96)

	a.entriesAt = func(threads int) uint64 {
		n := s.CSEntries
		if threads > 4 {
			// Real servers execute slightly more sections with more
			// threads (Table 5's memcached row grows ~1.5% from 4 to
			// 32 threads).
			n += uint64(float64(n) * 0.0005 * float64(threads-4))
		}
		return n
	}
}

func (a *app) roReads() int {
	if len(a.ro) == 0 {
		return 0
	}
	if a.roReadsPerEntry > 0 {
		return a.roReadsPerEntry
	}
	return 1
}

// Body implements Workload.
func (a *app) Body(m *sim.Thread, threads int, scale float64) {
	if threads <= 0 {
		threads = 4
	}
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	s := a.spec
	if a.sharedSize == 0 {
		a.sharedSize = 64
	}

	// Ballast: the program image, stacks, and data the model does not
	// otherwise represent, sized so the baseline RSS matches the
	// paper's Table 3 baseline and memory-overhead percentages are
	// comparable. It is touched once (faulted in) and identical across
	// configurations.
	if s.PaperRSSKB > 0 {
		bytes := s.PaperRSSKB * 1024
		if bytes > 1<<30 {
			bytes = 1 << 30
		}
		ballast := m.Malloc(bytes, s.Name+".image")
		m.Write(ballast, 0, bytes, s.Name+".image-init")
	}

	// Allocate the object population. Shared objects first, then the
	// filler pool sized to the Table 3 heap-object count.
	nRW := s.PaperSharedRW
	if nRW > 4096 {
		nRW = 4096 // NGINX's 100k short-lived RW objects come from churn instead
	}
	roHeap := s.PaperSharedRO
	budget := s.HeapObjects
	if a.upfrontHeap > 0 && a.upfrontHeap < budget {
		budget = a.upfrontHeap
	}
	for i := 0; i < a.rwFromGlobals && i < len(a.globals); i++ {
		a.rw = append(a.rw, a.globals[i])
		nRW--
	}
	for i := 0; i < nRW && budget > 0; i++ {
		a.rw = append(a.rw, m.Malloc(a.sharedSize, fmt.Sprintf("%s.rw%d", s.Name, i)))
		budget--
	}
	roSite := s.Name + ".ro"
	for i := 0; i < roHeap && budget > 0; i++ {
		a.ro = append(a.ro, m.Malloc(a.fillerOrDefault(), roSite))
		budget--
	}
	for b := 0; b < threads && budget > 0; b++ {
		a.private = append(a.private, m.Malloc(privateBufBytes, fmt.Sprintf("%s.priv%d", s.Name, b)))
		budget--
	}
	heapSite := s.Name + ".heap"
	for i := 0; budget > 0; i++ {
		a.filler = append(a.filler, m.Malloc(a.fillerOrDefault(), heapSite))
		budget--
	}
	for len(a.private) < threads { // tiny specs (aget: 24 heap objects)
		a.private = append(a.private, m.Malloc(privateBufBytes, fmt.Sprintf("%s.priv+", s.Name)))
	}

	// Sections: one lock per executed call site; shared RW objects are
	// distributed across the sections and always accessed under their
	// own section's lock — consistent locking, so the benchmarks are
	// race-free by construction.
	nSec := s.ExecutedCS
	if nSec <= 0 {
		nSec = 1
	}
	a.rwBySec = make([][]*alloc.Object, nSec)
	for i, o := range a.rw {
		a.rwBySec[i%nSec] = append(a.rwBySec[i%nSec], o)
	}
	a.sites = make([]string, nSec)
	a.updateSites = make([]string, nSec)
	a.lookupSites = make([]string, nSec)
	for i := 0; i < nSec; i++ {
		a.mutexes = append(a.mutexes, a.eng.NewMutex(fmt.Sprintf("%s.mu%d", s.Name, i)))
		a.sites[i] = fmt.Sprintf("%s.cs%d", s.Name, i)
		a.updateSites[i] = a.sites[i] + ".update"
		a.lookupSites[i] = a.sites[i] + ".lookup"
	}
	a.nestMu = a.eng.NewMutex(s.Name + ".inner")
	if a.nestEvery > 0 {
		a.nestObj = m.Malloc(a.sharedSize, s.Name+".inner-obj")
	}
	a.churnSite, a.churnInitSite = s.Name+".churn", s.Name+".churn-init"
	a.csInnerSite, a.innerUpdateSite = s.Name+".cs-inner", s.Name+".inner-update"
	a.poolSite, a.streamSite = s.Name+".pool", s.Name+".stream"

	a.calibrate()

	total := uint64(float64(a.entriesAt(threads)) * scale)
	per := total / uint64(threads)
	if per == 0 {
		per = 1
	}

	if a.preWorkers != nil {
		a.preWorkers(a, m, threads)
	}

	var barrier *sim.BarrierObj
	if a.phases > 1 {
		barrier = a.eng.NewBarrier(threads)
	}

	workers := make([]*sim.Thread, threads)
	for w := 0; w < threads; w++ {
		tid := w
		workers[w] = m.Go(fmt.Sprintf("%s.w%d", s.Name, tid), func(t *sim.Thread) {
			a.worker(t, tid, threads, per, nSec, barrier)
		})
	}
	if a.mainLoop != nil {
		a.mainLoop(a, m, workers)
	}
	for _, w := range workers {
		m.Join(w)
	}
}

// worker is one application thread's entry loop.
func (a *app) worker(t *sim.Thread, tid, threads int, entries uint64, nSec int, barrier *sim.BarrierObj) {
	s := a.spec
	priv := a.private[tid%len(a.private)]
	phaseLen := entries
	if a.phases > 1 {
		phaseLen = entries/uint64(a.phases) + 1
	}
	churnCounter := 0

	for i := uint64(0); i < entries; i++ {
		// Heap churn (allocation during the run).
		if a.churnPerMile > 0 {
			churnCounter += a.churnPerMile
			for churnCounter >= 1000 {
				churnCounter -= 1000
				size := uint64(64)
				if len(a.churnSizes) > 0 {
					size = a.churnSizes[int(i)%len(a.churnSizes)]
				}
				tmp := t.Malloc(size, a.churnSite)
				t.Write(tmp, 0, min64(size, 32), a.churnInitSite)
				t.Free(tmp)
			}
		}

		// Critical section. Entries concentrate on a hot set of
		// ActiveCS sections (real programs enter a few sections most
		// of the time, §7.3), striding by thread so distinct hot
		// sections run concurrently; the remaining sections execute
		// occasionally.
		hot := s.ActiveCS
		if a.hotOverride > 0 {
			hot = a.hotOverride
		}
		if hot <= 0 || hot > nSec {
			hot = nSec
		}
		cold := uint64(a.coldEvery)
		if cold == 0 {
			cold = 24
		}
		var sec int
		switch {
		case i < uint64(nSec):
			// Warm-up: program start-up paths visit every section
			// once, so all of the application's executed sections
			// appear even in short runs.
			sec = int(i+uint64(tid)) % nSec
		case nSec > hot && i%cold == cold-1:
			sec = hot + int(i/cold+uint64(tid))%(nSec-hot) // a cold section
		default:
			sec = int(i+uint64(tid)*uint64(hot/threads+1)) % hot
		}
		mu := a.mutexes[sec]
		t.Lock(mu, a.sites[sec])
		if objs := a.rwBySec[sec]; len(objs) > 0 {
			o := objs[int(i)%len(objs)]
			t.Write(o, (i%4)*8, 8, a.updateSites[sec])
		}
		for r := 0; r < a.roReads(); r++ {
			idx := a.roCursor % uint64(len(a.ro))
			a.roCursor++
			t.Read(a.ro[idx], 0, 8, a.lookupSites[sec])
		}
		if a.nestEvery > 0 && i%uint64(a.nestEvery) == 0 {
			t.Lock(a.nestMu, a.csInnerSite)
			t.Write(a.nestObj, 0, 8, a.innerUpdateSite)
			t.Unlock(a.nestMu)
		}
		if a.insideCS != nil {
			a.insideCS(a, t, tid, i, sec)
		}
		t.Compute(a.csCompute)
		t.Unlock(mu)

		// Unsynchronized phase: sweep the pool, stream the private
		// buffer, compute.
		if a.touchPerEntry > 0 && len(a.filler) > 0 {
			window := len(a.filler)
			if a.touchPool > 0 && a.touchPool < window {
				window = a.touchPool
			}
			start := (int(i) * a.touchPerEntry) % window
			end := start + a.touchPerEntry
			if end > window {
				end = window
			}
			t.Sweep(a.filler[start:end], min64(a.fillerOrDefault(), 64), mpk.Read, a.poolSite)
		}
		if a.remBytes > 0 {
			left := a.remBytes
			for left > 0 {
				n := min64(left, privateBufBytes)
				t.Write(priv, 0, n, a.streamSite)
				left -= n
			}
		}
		if a.outsideCS != nil {
			a.outsideCS(a, t, tid, i)
		}
		t.Compute(a.outCompute)

		if barrier != nil && i > 0 && i%phaseLen == 0 {
			t.Barrier(barrier)
		}
	}
	if barrier != nil {
		t.Barrier(barrier) // final phase barrier
	}
}

// fillerOrDefault returns the filler object size (64 B unless the model
// overrides it with an application-specific size).
func (a *app) fillerOrDefault() uint64 {
	if a.fillerSize == 0 {
		a.fillerSize = 64
	}
	return a.fillerSize
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
