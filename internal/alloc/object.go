// Package alloc provides the two heap allocators of the reproduction:
//
//   - Native: a compact, glibc-style allocator that packs many objects
//     into each page. It is what Baseline and TSan runs use.
//   - UniquePage: Kard's consolidated unique-page allocator (§5.3, §6).
//     Every object receives unique virtual page(s) so it can be protected
//     independently with MPK, and small objects are consolidated onto
//     shared physical frames through an in-memory file to conserve RSS
//     (Figure 2). Allocations are rounded to multiples of 32 B, one mmap
//     is issued per allocation, and freed virtual pages are not recycled
//     — all three choices follow §6 verbatim, including their costs.
//
// Both allocators register every object in an ObjectTable, which mints its
// ID and charges its metadata (base, size, site) to simulated RSS per
// object. Simulated accesses carry their object, so a fault needs no
// address → object lookup on the host; Kard's handler pays the modelled
// cost of one (§5.3).
package alloc

import (
	"fmt"

	"kard/internal/mem"
)

// ObjectID identifies an allocated object for the lifetime of a run.
// IDs are never reused, so a stale reference to a freed object is
// detectable.
type ObjectID uint64

// Object is the metadata record for one sharable object: any heap or
// global object in the program (§2.1).
type Object struct {
	ID     ObjectID
	Base   mem.Addr
	Size   uint64 // requested size in bytes
	Padded uint64 // size actually reserved (rounding + page padding)
	Global bool
	Site   string // allocation site or global name

	// Pages is the object's virtual page span. Under UniquePage the
	// span belongs to this object alone.
	FirstPage mem.Page
	NumPages  uint64

	freed bool

	// DetectorState is per-object scratch for the run's detector, as
	// sim.Thread, sim.Mutex and sim.CriticalSection carry per-thread and
	// per-lock state: Kard's domain record, the happens-before
	// detector's shadow ring, the lockset detector's Eraser record.
	// Every access and fault already holds its object, so the state
	// needs no ID-keyed table; each detector sets it to nil when the
	// object is freed. It stays out of the JSON race records that embed
	// the object.
	DetectorState any `json:"-"`
}

// Contains reports whether addr falls inside the object's payload.
func (o *Object) Contains(addr mem.Addr) bool {
	return addr >= o.Base && addr < o.Base+mem.Addr(o.Size)
}

// Freed reports whether the object has been deallocated.
func (o *Object) Freed() bool { return o.freed }

func (o *Object) String() string {
	kind := "heap"
	if o.Global {
		kind = "global"
	}
	return fmt.Sprintf("obj#%d(%s %q %dB @%s)", o.ID, kind, o.Site, o.Size, o.Base)
}

// objectMetadataBytes approximates the allocator bookkeeping per object
// (base, size, site) charged against simulated RSS. Kard keeps this
// metadata to resolve a faulting address to its object (§5.3).
const objectMetadataBytes = 96

// ObjectTable mints object IDs, counts live objects and charges each
// object's metadata to simulated RSS. It keeps no address index: every
// simulated access already carries its *Object, so the fault handler
// charges the modelled lookup cost (cycles.MapLookup) without performing
// one on the host.
type ObjectTable struct {
	space   *mem.AddressSpace
	nextID  ObjectID
	live    int
	peak    int
	created uint64
}

// NewObjectTable creates an empty table charging metadata to as.
func NewObjectTable(as *mem.AddressSpace) *ObjectTable {
	return &ObjectTable{space: as}
}

// Insert registers a new object and returns it.
func (t *ObjectTable) Insert(base mem.Addr, size, padded uint64, global bool, site string) *Object {
	t.nextID++
	first, last := mem.PageRange(base, padded)
	o := &Object{
		ID: t.nextID, Base: base, Size: size, Padded: padded,
		Global: global, Site: site,
		FirstPage: first, NumPages: uint64(last-first) + 1,
	}
	t.live++
	t.created++
	if t.live > t.peak {
		t.peak = t.live
	}
	t.space.ChargeMetadata(objectMetadataBytes)
	return o
}

// Remove unregisters o (on free).
func (t *ObjectTable) Remove(o *Object) error {
	if o.freed {
		return fmt.Errorf("alloc: double free of %s", o)
	}
	o.freed = true
	t.live--
	t.space.ChargeMetadata(-objectMetadataBytes)
	return nil
}

// Live returns the number of live objects.
func (t *ObjectTable) Live() int { return t.live }

// PeakLive returns the maximum number of simultaneously live objects.
func (t *ObjectTable) PeakLive() int { return t.peak }

// Created returns the total number of objects ever registered — the
// "sharable objects" count of Table 3.
func (t *ObjectTable) Created() uint64 { return t.created }
