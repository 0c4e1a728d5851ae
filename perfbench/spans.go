package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"kard/internal/trace"
)

// span is one timed interval of a traced run, recorded by the benchmark
// around a call into one layer. Its name is "<module>.<operation>".
type span struct {
	name       string
	lane       int // the actor that did the work: a matrix worker, client or cluster worker
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder's clock: time since the run began.
func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// add records a finished span and returns its index. A negative lane
// inherits the parent's.
func (r *recorder) add(lane, parent int, name string, start, end time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lane < 0 {
		lane = r.spans[parent].lane
	}
	r.spans = append(r.spans, span{name: name, lane: lane, parent: parent, start: start, end: end})
	return len(r.spans) - 1
}

// setEnd closes a span recorded with add before its end was known, so
// that children recorded meanwhile (the server side of an RPC) can name
// it as their parent.
func (r *recorder) setEnd(i int, end time.Duration) {
	r.mu.Lock()
	r.spans[i].end = end
	r.mu.Unlock()
}

// row is one line of a breakdown: the self time of every span of one
// name, in seconds of wall time (lane-seconds divided by lanes).
type row struct {
	name string
	s    float64
}

// breakdown attributes a traced run's wall time to layers. A span's self
// time is its duration minus its children's; rows plus unattributed sum
// to wall by construction, and unattributed is the lane time no span
// covers (idle workers, the benchmark's own checks between operations).
type breakdown struct {
	wall         float64 // seconds
	lanes        int
	rows         []row
	unattributed float64
}

func (r *recorder) fold(wall time.Duration, lanes int) breakdown {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		self[s.name] += s.end - s.start - child[i]
	}
	b := breakdown{wall: wall.Seconds(), lanes: lanes, unattributed: wall.Seconds()}
	for name, d := range self {
		v := d.Seconds() / float64(lanes)
		b.rows = append(b.rows, row{name, v})
		b.unattributed -= v
	}
	sort.Slice(b.rows, func(i, j int) bool { return b.rows[i].name < b.rows[j].name })
	return b
}

// check reports a breakdown whose spans overlap or overrun the run: every
// row must be non-negative and together they may exceed the wall time by
// rounding only.
func (b breakdown) check() error {
	for _, r := range b.rows {
		if r.s < 0 {
			return fmt.Errorf("breakdown row %s is negative (%.6fs): a child span outlasts its parent", r.name, r.s)
		}
	}
	if b.unattributed < -1e-3*b.wall {
		return fmt.Errorf("breakdown rows exceed the traced wall time by %.6fs", -b.unattributed)
	}
	return nil
}

func (b breakdown) write(w io.Writer, workload string) {
	fmt.Fprintf(w, "# %s traced breakdown: wall %.3fs over %d lanes (self time per span name, s of wall)\n", workload, b.wall, b.lanes)
	sum := 0.0
	for _, r := range b.rows {
		fmt.Fprintf(w, "#   %-24s %10.4f  %5.1f%%\n", r.name, r.s, 100*ratio(r.s, b.wall))
		sum += r.s
	}
	fmt.Fprintf(w, "#   %-24s %10.4f  %5.1f%%\n", "unattributed", b.unattributed, 100*ratio(b.unattributed, b.wall))
	fmt.Fprintf(w, "#   %-24s %10.4f  (wall %.4f)\n", "sum", sum+b.unattributed, b.wall)
}

// export writes the spans as Chrome trace-event JSON through the repo's
// own tracer, one track per lane, and returns the file path.
func (r *recorder) export(dir, workload string, seed int64) (string, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()

	kids := make([][]int, len(spans))
	var roots []int
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(ix []int) {
		sort.SliceStable(ix, func(a, b int) bool { return spans[ix[a]].start < spans[ix[b]].start })
	}
	byStart(roots)
	tr := trace.NewTracer(seed, "perfbench/"+workload, 0)
	tr.ProcessName(1, "perfbench "+workload)
	var emit func(k *trace.Track, i int)
	emit = func(k *trace.Track, i int) {
		s := spans[i]
		cat, _, _ := strings.Cut(s.name, ".")
		k.Begin(s.name, cat, s.start.Microseconds())
		byStart(kids[i])
		for _, c := range kids[i] {
			emit(k, c)
		}
		k.End(s.name, cat, s.end.Microseconds())
	}
	for _, i := range roots {
		lane := spans[i].lane
		emit(tr.Track(1, lane+1, fmt.Sprintf("lane %d", lane), 0), i)
	}
	if n := tr.Dropped(); n > 0 {
		return "", fmt.Errorf("span export dropped %d events", n)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// validate runs metricscheck -trace over an export.
func validate(checker, path string) error {
	out, err := exec.Command(checker, "-trace", path).CombinedOutput()
	if err != nil {
		return fmt.Errorf("metricscheck -trace %s: %v: %s", path, err, strings.TrimSpace(string(out)))
	}
	return nil
}
