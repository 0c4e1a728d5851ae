package alloc

import (
	"kard/internal/cycles"
	"kard/internal/mem"
)

// Allocator is the interface both heap allocators implement. Every method
// returns the virtual-cycle cost the calling thread must pay, mirroring
// the real cost asymmetry: Native mallocs are cheap; UniquePage mallocs
// issue syscalls.
type Allocator interface {
	// Name identifies the allocator in reports ("native", "uniquepage").
	Name() string

	// Malloc allocates size bytes at the given allocation site.
	Malloc(size uint64, site string) (*Object, cycles.Duration, error)

	// Free releases a previously allocated object.
	Free(o *Object) (cycles.Duration, error)

	// Global registers a global variable of the given size. Globals are
	// laid out before main runs; the returned cost is charged to the
	// main thread during startup.
	Global(size uint64, name string) (*Object, cycles.Duration, error)

	// Objects returns the shared object table: ID minting, live-object
	// counts and per-object metadata charges.
	Objects() *ObjectTable

	// Space returns the address space the allocator operates on.
	Space() *mem.AddressSpace
}

// align rounds n up to a multiple of a (a power of two).
func align(n, a uint64) uint64 {
	if n == 0 {
		n = 1
	}
	return (n + a - 1) &^ (a - 1)
}
