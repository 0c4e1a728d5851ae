package mem

import (
	"errors"
	"fmt"

	"kard/internal/faultinject"
)

// ErrFrameExhausted reports that the physical frame pool is out of
// frames: either the configured frame limit was reached or an exhaustion
// fault was injected. Callers match it with errors.Is.
var ErrFrameExhausted = errors.New("mem: physical frame pool exhausted")

// Frame is one simulated physical page frame. Frames carry no data by
// default; workloads that want to store real bytes through the simulated
// memory (the examples do) get a lazily allocated backing array. An
// anonymous page has a Frame only once Load or Store has touched its
// bytes; until then its frame exists only as a charge in the pool.
type Frame struct {
	id FrameID

	// mappings counts how many virtual pages currently map this frame.
	// Consolidated allocation (§5.3, Figure 2) maps up to 128 virtual
	// pages of 32 B objects onto a single frame.
	mappings int
	// everMapped marks file frames that have held a mapping, so
	// unmapping them counts as retained (non-recycled) memory.
	everMapped bool

	// data is the lazily allocated byte content of the frame.
	data []byte
}

// FrameID identifies a physical frame.
type FrameID uint64

// ID returns the frame's identifier.
func (f *Frame) ID() FrameID { return f.id }

// Mappings reports how many virtual pages currently map the frame.
func (f *Frame) Mappings() int { return f.mappings }

// bytes returns the frame's backing array, allocating it on first use.
func (f *Frame) bytes() []byte {
	if f.data == nil {
		f.data = make([]byte, PageSize)
	}
	return f.data
}

// framePool charges, allocates and recycles physical frames, tracking the
// physical memory footprint (distinct frames — what consolidation
// conserves, §5.3). The process RSS that Table 3 reports is accounted separately in
// AddressSpace, per present page-table entry, because Linux VmRSS counts
// a shared frame once per mapping — which is why the paper's reported
// memory overhead is "over-estimated rather than under-estimated" (§6).
type framePool struct {
	next     FrameID
	free     []*Frame
	resident uint64 // physical bytes currently charged
	// limit bounds live frames (0 = unlimited).
	limit uint64
	inj   *faultinject.Injector
}

// alloc returns a fresh (or recycled) frame, charged, or
// ErrFrameExhausted.
func (fp *framePool) alloc() (*Frame, error) {
	if err := fp.charge(); err != nil {
		return nil, err
	}
	return fp.take(), nil
}

// charge accounts one more physical frame without handing out a host
// Frame, or returns ErrFrameExhausted when the pool's frame limit is
// reached (recycled frames count: the limit models total physical memory,
// not allocation traffic). An anonymous page is charged at first touch
// and takes its Frame later, if ever (AddressSpace.copy).
func (fp *framePool) charge() error {
	if err := fp.inj.Fail(faultinject.SiteFrameAlloc); err != nil {
		return fmt.Errorf("%w: %w", ErrFrameExhausted, err)
	}
	if fp.limit > 0 && fp.resident/PageSize >= fp.limit {
		return fmt.Errorf("%w (limit %d frames)", ErrFrameExhausted, fp.limit)
	}
	fp.resident += PageSize
	return nil
}

// take returns a zeroed, recycled or fresh frame for an already charged
// page.
func (fp *framePool) take() *Frame {
	if n := len(fp.free); n > 0 {
		f := fp.free[n-1]
		fp.free = fp.free[:n-1]
		if f.data != nil {
			clear(f.data)
		}
		return f
	}
	fp.next++
	return &Frame{id: fp.next}
}

// uncharge gives back the charge of a page that never took its Frame.
func (fp *framePool) uncharge() { fp.resident -= PageSize }

// release returns a frame to the pool and gives back its charge.
func (fp *framePool) release(f *Frame) {
	fp.uncharge()
	fp.free = append(fp.free, f)
}
