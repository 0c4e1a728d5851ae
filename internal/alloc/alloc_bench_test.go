package alloc

import (
	"testing"

	"kard/internal/mem"
)

// BenchmarkMallocUniquePage measures Kard's allocator: one mmap per
// allocation plus consolidation bookkeeping.
func BenchmarkMallocUniquePage(b *testing.B) {
	as := mem.NewAddressSpace(0)
	u := NewUniquePage(as, NewObjectTable(as))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := u.Malloc(32, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMallocNative measures the compact baseline allocator.
func BenchmarkMallocNative(b *testing.B) {
	as := mem.NewAddressSpace(0)
	n := NewNative(as, NewObjectTable(as))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := n.Malloc(32, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
