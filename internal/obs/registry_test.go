package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers one counter, one gauge, and one
// histogram from parallel writers while a reader renders exposition, and
// checks the final snapshot is exactly the sum of what the writers did.
// Run under -race this also proves the update paths are data-race-free.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "counter")
	g := r.Gauge("g", "gauge")
	h := r.Histogram("h", "histogram", []float64{10, 20, 30})

	const writers = 8
	const perWriter = 10_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i % 40))
				// Re-registration from a hot goroutine must return the
				// same handle, not a fresh series.
				if w == 0 && i%1000 == 0 {
					if r.Counter("c_total", "counter") != c {
						panic("re-registration returned a different counter")
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				panic(err)
			}
		}
	}()
	wg.Wait()
	<-done

	if got, want := c.Value(), uint64(writers*perWriter); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got, want := h.Count(), uint64(writers*perWriter); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	var bucketSum uint64
	for _, n := range h.BucketCounts() {
		bucketSum += n
	}
	if bucketSum != h.Count() {
		t.Errorf("bucket counts sum to %d, want %d (snapshot inconsistent after quiesce)", bucketSum, h.Count())
	}
	// Each writer observed 0..39 repeatedly: sum per 40 observations is
	// 780, and writers*perWriter is a multiple of 40.
	wantSum := float64(writers*perWriter/40) * 780
	if h.Sum() != wantSum {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), wantSum)
	}
}

// TestHistogramBuckets is the bucket-boundary table test: observations
// landing exactly on an upper bound belong to that bucket (le is
// inclusive), and everything past the last bound lands in +Inf.
func TestHistogramBuckets(t *testing.T) {
	bounds := []float64{1, 5, 10}
	tests := []struct {
		v      float64
		bucket int // index into counts, len(bounds) = +Inf
	}{
		{0, 0},
		{0.5, 0},
		{1, 0}, // on the boundary: le="1" includes 1
		{1.01, 1},
		{5, 1},
		{5.5, 2},
		{10, 2},
		{10.0001, 3},
		{1e9, 3},
		{-3, 0}, // below every bound still lands in the first bucket
	}
	for _, tc := range tests {
		r := NewRegistry()
		h := r.Histogram("h", "x", bounds)
		h.Observe(tc.v)
		counts := h.BucketCounts()
		for i, n := range counts {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.v, i, n, want)
			}
		}
		if h.Count() != 1 || h.Sum() != tc.v {
			t.Errorf("Observe(%v): count=%d sum=%g", tc.v, h.Count(), h.Sum())
		}
	}
}

// TestWritePrometheusGolden pins the exposition format byte for byte:
// family sorting, HELP/TYPE lines, label rendering, cumulative histogram
// buckets with the le label spliced after existing labels, and integer
// counter/gauge formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("kard_test_ops_total", "Operations, by kind.", "kind", "read")
	c2 := r.Counter("kard_test_ops_total", "Operations, by kind.", "kind", "write")
	g := r.Gauge("kard_test_depth", "Current depth.")
	h := r.Histogram("kard_test_latency_seconds", "Latency.", []float64{0.5, 1}, "op", "sync")

	c.Add(3)
	c2.Add(1)
	g.Set(-2)
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP kard_test_depth Current depth.
# TYPE kard_test_depth gauge
kard_test_depth -2
# HELP kard_test_latency_seconds Latency.
# TYPE kard_test_latency_seconds histogram
kard_test_latency_seconds_bucket{op="sync",le="0.5"} 2
kard_test_latency_seconds_bucket{op="sync",le="1"} 2
kard_test_latency_seconds_bucket{op="sync",le="+Inf"} 3
kard_test_latency_seconds_sum{op="sync"} 2.75
kard_test_latency_seconds_count{op="sync"} 3
# HELP kard_test_ops_total Operations, by kind.
# TYPE kard_test_ops_total counter
kard_test_ops_total{kind="read"} 3
kard_test_ops_total{kind="write"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabelEscaping covers the three characters the text format requires
// escaping in label values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "x", "k", "a\\b\"c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `e_total{k="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped series %q not found in:\n%s", want, b.String())
	}
}

// TestTypeMismatchPanics: pre-registration is where programming errors
// surface; silently aliasing a counter as a gauge would corrupt both.
func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "x")
}

// TestRegisterMetricsIdempotent: the canonical set can be re-registered
// (tests do this) and returns identical handles.
func TestRegisterMetricsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := RegisterMetrics(r)
	b := RegisterMetrics(r)
	if a.MemTLBHits != b.MemTLBHits || a.SvcJournalFsync != b.SvcJournalFsync {
		t.Fatal("RegisterMetrics returned different handles on re-registration")
	}
	if a.BreakerState("w1") != b.BreakerState("w1") {
		t.Fatal("BreakerState returned different handles for the same workload")
	}
}
