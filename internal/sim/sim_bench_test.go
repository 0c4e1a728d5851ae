package sim

import (
	"fmt"
	"testing"

	"kard/internal/alloc"
	"kard/internal/mpk"
	"kard/internal/trace"
)

// BenchmarkOpDispatch measures raw engine throughput: one compute
// operation through the park/pick/resume scheduler. A Compute buffers
// under the default mode, so each iteration flushes it to park once.
func BenchmarkOpDispatch(b *testing.B) {
	e := New(Config{}, nil)
	if _, err := e.Run(func(m *Thread) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Compute(1)
			m.Flush()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkComputeBuffered measures a Compute as workloads issue it: one
// batch entry, with a park per 128 of them when the buffer fills. It must
// not allocate.
func BenchmarkComputeBuffered(b *testing.B) {
	e := New(Config{}, nil)
	if _, err := e.Run(func(m *Thread) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Compute(1)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLockUnlock measures the uncontended lock path including
// section bookkeeping.
func BenchmarkLockUnlock(b *testing.B) {
	e := New(Config{}, nil)
	mu := e.NewMutex("m")
	if _, err := e.Run(func(m *Thread) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Lock(mu, "s")
			m.Unlock(mu)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContendedScheduling measures the scheduler with four threads
// contending for one lock — the discrete-event core under load.
func BenchmarkContendedScheduling(b *testing.B) {
	e := New(Config{Seed: 1}, nil)
	mu := e.NewMutex("m")
	per := b.N/4 + 1
	if _, err := e.Run(func(m *Thread) {
		var ws []*Thread
		for i := 0; i < 4; i++ {
			ws = append(ws, m.Go(fmt.Sprintf("w%d", i), func(w *Thread) {
				for j := 0; j < per; j++ {
					w.Lock(mu, "s")
					w.Compute(10)
					w.Unlock(mu)
				}
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccessSteadyState measures the full per-access path — operation
// dispatch, dTLB translate (warm, so the MRU fast path fires), cycle
// accounting, and the detector hook — at steady state, where it must not
// allocate: the engine-side work is zero-alloc (scratch Access record,
// radix table, map-free TLB), and a buffer-full drain parks the only
// thread, which runs the scheduler itself and resumes without a channel
// operation.
func BenchmarkAccessSteadyState(b *testing.B) {
	e := New(Config{}, nil)
	if _, err := e.Run(func(m *Thread) {
		obj := m.Malloc(64, "obj")
		m.Read(obj, 0, 8, "warm")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Read(obj, 0, 8, "hot")
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccessSteadyStateMetrics is the same steady-state access loop
// with live metrics publishing on (Config.Metrics), as the detection
// service runs it. The access units go out in one atomic add per park —
// here one per 128-access batch — not one per access. The loop must stay
// at 0 allocs/op under its 200 ns/op ceiling; the benchmark gate enforces
// both, keeping the observability layer honest about its "zero
// allocation" claim.
func BenchmarkAccessSteadyStateMetrics(b *testing.B) {
	e := New(Config{Metrics: true}, nil)
	if _, err := e.Run(func(m *Thread) {
		obj := m.Malloc(64, "obj")
		m.Read(obj, 0, 8, "warm")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Read(obj, 0, 8, "hot")
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccessSteadyStateTraced is the steady-state access loop with a
// span track attached (Config.Trace), as `kardbench -trace` runs it. The
// tracer records only at run boundaries and sync operations — never per
// access — so the hot loop's cost and its 0 allocs/op must be
// indistinguishable from the untraced loop; the benchmark gate enforces
// the obs zero-alloc contract on the tracing layer the same way it does
// on metrics.
func BenchmarkAccessSteadyStateTraced(b *testing.B) {
	tk := trace.NewTracer(1, "bench", 0).Track(1, 1, "bench", 0)
	e := New(Config{Trace: tk}, nil)
	if _, err := e.Run(func(m *Thread) {
		obj := m.Malloc(64, "obj")
		m.Read(obj, 0, 8, "warm")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Read(obj, 0, 8, "hot")
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccessBatchedParallel is the multi-threaded steady state: four
// threads hammer disjoint objects under the default mode, so every batch
// fills and the pick loop replays four threads' batches interleaved, with
// the baton passing between their goroutines. The park and hand-off cost
// amortizes over each 128-access batch, so the loop must stay at 0
// allocs/op.
func BenchmarkAccessBatchedParallel(b *testing.B) {
	e := New(Config{Seed: 1}, nil)
	per := b.N/4 + 1
	if _, err := e.Run(func(m *Thread) {
		var ws []*Thread
		for i := 0; i < 4; i++ {
			ws = append(ws, m.Go(fmt.Sprintf("w%d", i), func(w *Thread) {
				obj := w.Malloc(256, "obj")
				b.ReportAllocs()
				for j := 0; j < per; j++ {
					w.Read(obj, uint64(j%32)*8, 8, "hot")
				}
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReconcileSyncPoint stresses the drain boundary instead of the
// buffered fast path: four threads flush every 16 accesses, so the
// park/pick/replay machinery runs 8× more often per access than under
// full 128-entry batches. This is the cost model for synchronization-
// heavy programs, which drain at every lock operation.
func BenchmarkReconcileSyncPoint(b *testing.B) {
	e := New(Config{Seed: 1}, nil)
	per := b.N/(4*16) + 1
	if _, err := e.Run(func(m *Thread) {
		var ws []*Thread
		for i := 0; i < 4; i++ {
			ws = append(ws, m.Go(fmt.Sprintf("w%d", i), func(w *Thread) {
				obj := w.Malloc(256, "obj")
				b.ReportAllocs()
				for j := 0; j < per; j++ {
					for k := 0; k < 16; k++ {
						w.Read(obj, uint64(k)*8, 8, "hot")
					}
					w.Flush()
				}
			}))
		}
		for _, w := range ws {
			m.Join(w)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweep measures the batched pool-access operation the workload
// models rely on: one engine op touching 64 distinct objects — under the
// default execution mode the Sweep call buffers and the entries replay at
// the drain, so this also covers the sweep expansion of the batch path.
func BenchmarkSweep(b *testing.B) {
	e := New(Config{UniquePageAllocator: true}, nil)
	if _, err := e.Run(func(m *Thread) {
		pool := make([]*alloc.Object, 64)
		for i := range pool {
			pool[i] = m.Malloc(32, "pool")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Sweep(pool, 32, mpk.Read, "sweep")
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccessMultiPage measures the workloads' private-buffer
// stream: one 32-page (128 KiB) Write per op on a warm buffer, so every
// page hits the dTLB and the access translates as one page run. It must
// not allocate.
func BenchmarkAccessMultiPage(b *testing.B) {
	e := New(Config{}, nil)
	if _, err := e.Run(func(m *Thread) {
		buf := m.Malloc(128<<10, "buf")
		m.Write(buf, 0, 128<<10, "warm")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Write(buf, 0, 128<<10, "stream")
		}
	}); err != nil {
		b.Fatal(err)
	}
}
