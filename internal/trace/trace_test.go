package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// fill records a deterministic little campaign on a tracer: two
// processes, two tracks each, nested spans, instants, and an argument
// or two. Every timestamp is logical, so two fills are byte-identical.
func fill(tr *Tracer) {
	tr.ProcessName(1, "kardbench")
	tr.ProcessName(2, "worker")
	for pid := 1; pid <= 2; pid++ {
		for tid := 1; tid <= 2; tid++ {
			k := tr.Track(pid, tid, fmt.Sprintf("cell-%d-%d", pid, tid), 0)
			run := k.Begin("run", "sim", 0)
			for i := 0; i < 5; i++ {
				k.BeginArg("epoch", "sim", int64(10+i*20), "threads", "4")
				k.InstantArg("drain", "sim", int64(15+i*20), "depth", "", int64(i))
				k.EndArg("epoch", "sim", int64(20+i*20), "accesses", int64(128*i))
			}
			k.End("run", "sim", 200)
			_ = run
		}
	}
}

func TestSameSeedByteIdentity(t *testing.T) {
	var a, b bytes.Buffer
	for i, w := range []*bytes.Buffer{&a, &b} {
		tr := NewTracer(42, "campaign", 0)
		fill(tr)
		if err := tr.WriteChrome(w); err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same-seed exports differ:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
	// And a different seed must change the IDs.
	tr := NewTracer(43, "campaign", 0)
	fill(tr)
	var c bytes.Buffer
	if err := tr.WriteChrome(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical exports")
	}
}

func TestTrackOrderIndependentIdentity(t *testing.T) {
	// A worker pool creates tracks in nondeterministic order; IDs must
	// come from track identity, not creation order.
	forward := NewTracer(7, "s", 0)
	reverse := NewTracer(7, "s", 0)
	var fw, rv [4]uint64
	for i := 0; i < 4; i++ {
		fw[i] = forward.Track(1, i+1, "t", 0).SpanID()
	}
	for i := 3; i >= 0; i-- {
		rv[i] = reverse.Track(1, i+1, "t", 0).SpanID()
	}
	if fw != rv {
		t.Fatalf("span IDs depend on track creation order: %x vs %x", fw, rv)
	}
	// Same coordinates return the same track.
	if forward.Track(1, 1, "t", 0) != forward.Track(1, 1, "other", 99) {
		t.Fatal("Track did not dedupe by (pid, tid)")
	}
}

func TestRingWraparoundConcurrent(t *testing.T) {
	// Many writers share one small-capacity track; the boundary flush
	// must neither lose nor duplicate events. Run under -race this also
	// exercises the Track.mu → Tracer.mu lock order.
	const writers, per = 8, 1000
	tr := NewTracer(1, "wrap", 0)
	k := tr.Track(1, 1, "shared", 16) // tiny ring: ~500 wraparounds
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k.Instant("tick", "test", int64(i))
			}
		}(w)
	}
	wg.Wait()
	events, _, _ := tr.snapshot()
	if len(events) != writers*per {
		t.Fatalf("lost or duplicated events across wraparound: got %d, want %d",
			len(events), writers*per)
	}
	seen := make(map[uint64]bool, len(events))
	var lastTs int64 = -1
	for _, ev := range events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		_ = lastTs
	}
	// Seq must be dense 1..N (assigned under the track lock).
	for s := uint64(1); s <= uint64(writers*per); s++ {
		if !seen[s] {
			t.Fatalf("missing seq %d", s)
		}
	}
}

func TestMonotonicClamp(t *testing.T) {
	tr := NewTracer(3, "clamp", 0)
	k := tr.Track(1, 1, "t", 0)
	k.Instant("a", "c", 100)
	k.Instant("b", "c", 50) // goes backwards: clamped to 101
	k.Instant("c", "c", -1) // "just after previous": 102
	k.Instant("d", "c", 102)
	events, _, _ := tr.snapshot()
	want := []int64{100, 101, 102, 103}
	if len(events) != len(want) {
		t.Fatalf("got %d events", len(events))
	}
	for i, ev := range events {
		if ev.Ts != want[i] {
			t.Fatalf("event %d: ts %d, want %d", i, ev.Ts, want[i])
		}
	}
}

func TestSpoolBudgetDrops(t *testing.T) {
	tr := NewTracer(4, "budget", 10)
	k := tr.Track(1, 1, "t", 4)
	for i := 0; i < 100; i++ {
		k.Instant("e", "c", int64(i))
	}
	k.Flush()
	if got := tr.Dropped(); got == 0 {
		t.Fatal("expected drops at the spool budget")
	}
	events, _, _ := tr.snapshot()
	if len(events) > 10 {
		t.Fatalf("spool exceeded budget: %d events", len(events))
	}
	// The export must still be valid JSON.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
}

func TestChromeExportShape(t *testing.T) {
	tr := NewTracer(5, "shape", 0)
	fill(tr)
	// Escaping-sensitive content must survive the hand-built encoder.
	tr.Track(3, 1, `quo"te\back`+"\x01", 0).Instant(`name "x"`, "c\\d", 1)
	tr.ProcessName(3, "esc")
	// A second integer argument follows the first; a negative first
	// integer is left out.
	args := tr.Track(3, 2, "args", 0)
	args.InstantArg2("malloc", "sim", 1, "object", "conn", 12, "thread", 3)
	args.InstantArg2("lock", "sim", 2, "site", "cs", -1, "thread", 1)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"args":{"object":"conn","object_n":12,"thread":3}}`,
		`"args":{"site":"cs","thread":1}}`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("export lacks %s", want)
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   int64          `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// Balanced B/E per (pid, tid) and monotonic ts per track.
	depth := map[[2]int]int{}
	last := map[[2]int]int64{}
	for _, ev := range doc.TraceEvents {
		key := [2]int{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "B":
			depth[key]++
		case "E":
			depth[key]--
			if depth[key] < 0 {
				t.Fatalf("unmatched E on track %v", key)
			}
		case "M":
			continue
		}
		if prev, ok := last[key]; ok && ev.Ts < prev {
			t.Fatalf("ts went backwards on track %v: %d after %d", key, ev.Ts, prev)
		}
		last[key] = ev.Ts
	}
	for key, d := range depth {
		if d != 0 {
			t.Fatalf("track %v left %d spans open", key, d)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	var k *Track
	if tr.TraceID() != 0 || tr.Now() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer returned nonzero")
	}
	tr.ProcessName(1, "x")
	if tr.Track(1, 1, "t", 0) != nil {
		t.Fatal("nil tracer minted a track")
	}
	if k.SpanID() != 0 || k.Begin("a", "b", 0) != 0 {
		t.Fatal("nil track minted a span")
	}
	k.End("a", "b", 0)
	k.Instant("a", "b", 0)
	k.InstantArg("a", "b", 0, "k", "v", 1)
	k.EndArg("a", "b", 0, "k", 1)
	k.Flush()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{\"traceEvents\":[]}\n" {
		t.Fatalf("nil export: %q", buf.String())
	}
}

func TestInjectExtract(t *testing.T) {
	h := http.Header{}
	sc := SpanContext{Trace: 0xdeadbeefcafe, Span: 0x1234}
	Inject(h, sc)
	if got := Extract(h); got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
	// Zero context injects nothing.
	h2 := http.Header{}
	Inject(h2, SpanContext{})
	if len(h2) != 0 {
		t.Fatal("zero context set headers")
	}
	// Malformed headers yield the zero context.
	h3 := http.Header{}
	h3.Set(HeaderTraceID, "not-hex")
	if got := Extract(h3); got.Valid() {
		t.Fatalf("malformed header parsed: %+v", got)
	}
	if Extract(http.Header{}).Valid() {
		t.Fatal("empty headers parsed")
	}
}
