package mem

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPageMath(t *testing.T) {
	tests := []struct {
		addr Addr
		page Page
		off  uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{4095, 0, 4095},
		{4096, 1, 0},
		{0xf2020, 0xf2, 0x20},
	}
	for _, tt := range tests {
		if got := PageOf(tt.addr); got != tt.page {
			t.Errorf("PageOf(%s) = %d, want %d", tt.addr, got, tt.page)
		}
		if got := Offset(tt.addr); got != tt.off {
			t.Errorf("Offset(%s) = %d, want %d", tt.addr, got, tt.off)
		}
	}
}

func TestPageOfBaseRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		p := PageOf(Addr(a))
		return p.Base() <= Addr(a) && Addr(a)-p.Base() < PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPagesFor(t *testing.T) {
	tests := []struct {
		size uint64
		want uint64
	}{
		{0, 1}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {12289, 4},
	}
	for _, tt := range tests {
		if got := PagesFor(tt.size); got != tt.want {
			t.Errorf("PagesFor(%d) = %d, want %d", tt.size, got, tt.want)
		}
	}
}

func TestPageRangeSpansPages(t *testing.T) {
	first, last := PageRange(4090, 10)
	if first != 0 || last != 1 {
		t.Errorf("PageRange(4090, 10) = %d..%d, want 0..1", first, last)
	}
	first, last = PageRange(4096, 0)
	if first != 1 || last != 1 {
		t.Errorf("PageRange(4096, 0) = %d..%d, want 1..1", first, last)
	}
}

func TestMmapAnonAndTranslate(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 2, 5)
	if Offset(a) != 0 {
		t.Fatalf("mmap returned unaligned address %s", a)
	}
	pte, miss, minor, err := as.Translate(a + 100)
	if err != nil {
		t.Fatal(err)
	}
	if !miss {
		t.Error("first translation should miss the TLB")
	}
	if !minor {
		t.Error("first touch should minor-fault the page in")
	}
	if pte.Pkey != 5 {
		t.Errorf("pkey = %d, want 5", pte.Pkey)
	}
	if _, miss, _, _ = as.Translate(a + 200); miss {
		t.Error("second translation of same page should hit the TLB")
	}
	// Each anonymous page is charged its own frame at first touch, before
	// any host Frame exists, and holds its own bytes once stored to.
	if _, _, _, err := as.Translate(a + PageSize); err != nil {
		t.Fatal(err)
	}
	if phys := as.PhysicalBytes(); phys != 2*PageSize {
		t.Errorf("physical = %d after touching both pages, want %d", phys, 2*PageSize)
	}
	if err := as.Store(a+8, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := as.Store(a+PageSize+8, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got1, got2 := make([]byte, 3), make([]byte, 3)
	if err := as.Load(a+8, got1); err != nil {
		t.Fatal(err)
	}
	if err := as.Load(a+PageSize+8, got2); err != nil {
		t.Fatal(err)
	}
	if string(got1) != "one" || string(got2) != "two" {
		t.Errorf("loaded %q and %q, want %q and %q", got1, got2, "one", "two")
	}
	pte1, _ := as.Peek(a)
	pte2, _ := as.Peek(a + PageSize)
	if pte1.Frame == nil || pte2.Frame == nil || pte1.Frame == pte2.Frame {
		t.Error("anonymous pages should have distinct frames")
	}
	if phys := as.PhysicalBytes(); phys != 2*PageSize {
		t.Errorf("physical = %d after storing to both pages, want %d (no second charge)", phys, 2*PageSize)
	}
}

// TestPTESize pins the page-table entry at 32 bytes: leaves hold 8192 of
// them by value, and the TLB slot link must fit in existing padding.
func TestPTESize(t *testing.T) {
	if got := unsafe.Sizeof(PTE{}); got != 32 {
		t.Errorf("sizeof(PTE) = %d, want 32", got)
	}
}

// TestFirstTouchAllocatesNothing: mapping an anonymous page and faulting
// it in through Translate allocates no host memory — the physical frame
// is charged, and a host Frame waits until Load or Store needs bytes.
func TestFirstTouchAllocatesNothing(t *testing.T) {
	as := NewAddressSpace(0)
	mapTouch := func() {
		a, err := as.MmapAnon(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, minor, err := as.Translate(a); err != nil || !minor {
			t.Fatalf("first translate: minor=%v err=%v", minor, err)
		}
	}
	mapTouch() // allocates the radix leaf for the region
	if allocs := testing.AllocsPerRun(100, mapTouch); allocs != 0 {
		t.Errorf("mmap + first translate: %v allocs, want 0", allocs)
	}
}

func TestTranslateUnmapped(t *testing.T) {
	as := NewAddressSpace(0)
	if _, _, _, err := as.Translate(0xdead000); err == nil {
		t.Fatal("expected error translating unmapped address")
	}
}

func TestMunmap(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 3, 0)
	if err := as.Munmap(a, 3); err != nil {
		t.Fatal(err)
	}
	if as.Mapped(a) {
		t.Error("page still mapped after munmap")
	}
	if err := as.Munmap(a, 1); err == nil {
		t.Error("double munmap should fail")
	}
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("resident = %d after unmapping everything, want 0", got)
	}
}

// TestMunmapKeepsEmptiedLeaf maps and unmaps one page at a time, as the
// unique-page allocator does on every malloc/free. Unmapping the last page
// of a radix leaf keeps the leaf, so the next mmap in its region allocates
// nothing, and walks skip the retained empty leaf.
func TestMunmapKeepsEmptiedLeaf(t *testing.T) {
	as := NewAddressSpace(0)
	mapUnmap := func() {
		a, err := as.MmapAnon(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.Munmap(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	mapUnmap()
	if allocs := testing.AllocsPerRun(100, mapUnmap); allocs != 0 {
		t.Errorf("mmap+munmap of one page: %v allocs, want 0", allocs)
	}
	if got := as.PagesWithKey(0); len(got) != 0 {
		t.Errorf("PagesWithKey(0) = %v after unmapping every page, want none", got)
	}
	if got := as.MappedPages(); got != 0 {
		t.Errorf("mapped pages = %d, want 0", got)
	}
}

func TestMunmapRejectsHoles(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 3, 0)
	if err := as.Munmap(a+PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(a, 3); err == nil {
		t.Error("munmap spanning a hole should fail")
	}
	// The first and last pages must still be mapped (no partial unmap).
	if !as.Mapped(a) || !as.Mapped(a+2*PageSize) {
		t.Error("failed munmap must not unmap any page")
	}
}

func TestMemfdSharedMapping(t *testing.T) {
	as := NewAddressSpace(0)
	f := as.NewMemfd("heap")
	if err := f.Truncate(PageSize); err != nil {
		t.Fatal(err)
	}
	// Map the same physical page at two different virtual pages — the
	// consolidation trick of Figure 2.
	a1, err := as.MmapShared(f, 0, 1, 15)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := as.MmapShared(f, 0, 1, 15)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("shared mappings must land at distinct virtual pages")
	}
	p1, _ := as.Peek(a1)
	p2, _ := as.Peek(a2)
	if p1.Frame != p2.Frame {
		t.Error("both mappings should share one physical frame")
	}
	// A write through one mapping is visible through the other, at the
	// same in-frame offset.
	if err := as.Store(a1+32, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := as.Load(a2+32, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("read %q through second mapping, want %q", got, "hello")
	}
	// One physical frame, but RSS counts both touched mappings, as
	// VmRSS counts present PTEs (§6: over-estimated memory overhead).
	if phys := as.PhysicalBytes(); phys != PageSize {
		t.Errorf("physical = %d, want one frame (%d)", phys, PageSize)
	}
	if rss := as.ResidentBytes(); rss != 2*PageSize {
		t.Errorf("resident = %d, want two mapped pages (%d)", rss, 2*PageSize)
	}
}

func TestMmapSharedBeyondEOF(t *testing.T) {
	as := NewAddressSpace(0)
	f := as.NewMemfd("heap")
	if err := f.Truncate(PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MmapShared(f, PageSize, 1, 0); err == nil {
		t.Error("mapping past EOF should fail")
	}
	if _, err := as.MmapShared(f, 100, 1, 0); err == nil {
		t.Error("unaligned file offset should fail")
	}
}

func TestTruncateShrinkGuard(t *testing.T) {
	as := NewAddressSpace(0)
	f := as.NewMemfd("heap")
	if err := f.Truncate(2 * PageSize); err != nil {
		t.Fatal(err)
	}
	a, err := as.MmapShared(f, PageSize, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(PageSize); err == nil {
		t.Error("shrinking a file with mapped trailing frame should fail")
	}
	if err := as.Munmap(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(PageSize); err != nil {
		t.Errorf("shrink after unmap: %v", err)
	}
	if got := f.Size(); got != PageSize {
		t.Errorf("size = %d, want %d", got, PageSize)
	}
}

func TestProtectRetagsPages(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 2, 0)
	// Warm the TLB first so we exercise the no-flush property.
	if _, _, _, err := as.Translate(a); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(a, 2*PageSize, 9); err != nil {
		t.Fatal(err)
	}
	pte, miss, _, err := as.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	if miss {
		t.Error("pkey_mprotect must not flush the TLB translation")
	}
	if pte.Pkey != 9 {
		t.Errorf("pkey after protect = %d, want 9", pte.Pkey)
	}
	if err := as.Protect(0xdead000, 1, 3); err == nil {
		t.Error("protect of unmapped page should fail")
	}
}

func TestProtectSpansRange(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 3, 0)
	// Protect a byte range straddling pages 0 and 1 only.
	if err := as.Protect(a+PageSize-1, 2, 7); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint8{7, 7, 0} {
		pte, _ := as.Peek(a + Addr(i*PageSize))
		if pte.Pkey != want {
			t.Errorf("page %d pkey = %d, want %d", i, pte.Pkey, want)
		}
	}
}

func TestTLBEvictionAndCounters(t *testing.T) {
	as := NewAddressSpace(4)
	a := mustMmap(t, as, 8, 0)
	for i := 0; i < 8; i++ {
		if _, _, _, err := as.Translate(a + Addr(i*PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	tlb := as.TLB()
	if tlb.Misses() != 8 {
		t.Errorf("misses = %d, want 8 cold misses", tlb.Misses())
	}
	// Page 7 was just inserted; it must hit.
	if _, miss, _, _ := as.Translate(a + 7*PageSize); miss {
		t.Error("most recent page evicted unexpectedly")
	}
	// Page 0 was evicted by the CLOCK sweep across 8 pages in a 4-entry
	// TLB; it must miss.
	if _, miss, _, _ := as.Translate(a); !miss {
		t.Error("page 0 should have been evicted")
	}
	if got := tlb.MissRate(); got <= 0 || got > 1 {
		t.Errorf("miss rate %v out of range", got)
	}
	tlb.ResetCounters()
	if tlb.Hits() != 0 || tlb.Misses() != 0 {
		t.Error("ResetCounters did not zero counters")
	}
}

func TestTLBInvalidate(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 1, 0)
	if _, _, _, err := as.Translate(a); err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(a, 1); err != nil {
		t.Fatal(err)
	}
	// Remapping reuses a fresh region; the old page must not resolve.
	if _, _, _, err := as.Translate(a); err == nil {
		t.Error("translation of unmapped page succeeded after munmap")
	}
}

func TestRSSTracking(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 4, 0)
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("resident = %d before any touch, want 0 (demand paging)", got)
	}
	for i := 0; i < 4; i++ {
		if err := as.Store(a+Addr(i*PageSize), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := as.ResidentBytes(); got != 4*PageSize {
		t.Errorf("resident = %d after touching, want %d", got, 4*PageSize)
	}
	if as.MinorFaults != 4 {
		t.Errorf("minor faults = %d, want 4", as.MinorFaults)
	}
	as.ChargeMetadata(1000)
	if got := as.ResidentBytes(); got != 4*PageSize+1000 {
		t.Errorf("resident with metadata = %d, want %d", got, 4*PageSize+1000)
	}
	peak := as.PeakResidentBytes()
	if err := as.Munmap(a, 4); err != nil {
		t.Fatal(err)
	}
	as.ChargeMetadata(-1000)
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("resident after teardown = %d, want 0", got)
	}
	if as.PeakResidentBytes() != peak {
		t.Error("peak should not decrease on free")
	}
	// Over-crediting metadata must not underflow.
	as.ChargeMetadata(-5000)
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("resident after over-credit = %d, want 0", got)
	}
}

func TestFrameRecycling(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 1, 0)
	if err := as.Store(a, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(a, 1); err != nil {
		t.Fatal(err)
	}
	b := mustMmap(t, as, 1, 0)
	buf := make([]byte, 3)
	if err := as.Load(b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 || buf[2] != 0 {
		t.Errorf("recycled frame not zeroed: %v", buf)
	}
}

func TestStoreLoadAcrossPages(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 2, 0)
	msg := make([]byte, 100)
	for i := range msg {
		msg[i] = byte(i)
	}
	start := a + PageSize - 50 // straddles the page boundary
	if err := as.Store(start, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if err := as.Load(start, got); err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], msg[i])
		}
	}
	if err := as.Store(0x99999000, []byte{1}); err == nil {
		t.Error("store to unmapped memory should fail")
	}
}

func TestPagesWithKey(t *testing.T) {
	as := NewAddressSpace(0)
	a := mustMmap(t, as, 3, 2)
	if err := as.Protect(a+PageSize, PageSize, 4); err != nil {
		t.Fatal(err)
	}
	if got := len(as.PagesWithKey(2)); got != 2 {
		t.Errorf("pages with key 2 = %d, want 2", got)
	}
	if got := len(as.PagesWithKey(4)); got != 1 {
		t.Errorf("pages with key 4 = %d, want 1", got)
	}
}

// mustMmap is the test shorthand for MmapAnon calls that cannot fail
// (no injector, no frame limit).
func mustMmap(tb testing.TB, as *AddressSpace, n uint64, pkey uint8) Addr {
	tb.Helper()
	a, err := as.MmapAnon(n, pkey)
	if err != nil {
		tb.Fatalf("MmapAnon(%d, %d): %v", n, pkey, err)
	}
	return a
}
