package sim

import (
	"fmt"
	"sort"
	"strings"
)

// blockageReport describes every permanently blocked thread at engine
// shutdown — what it waits on and who is responsible — and names any
// lock-ordering cycle it finds in the waits-for graph. It turns the bare
// "deadlock" error into an actionable diagnosis.
func (e *Engine) blockageReport() string {
	waitsOn := map[*Thread]string{}   // thread → human description
	waitsFor := map[*Thread]*Thread{} // mutex waits-for edges only

	for _, m := range e.mutexes {
		for _, w := range m.waiters {
			holder := "nobody"
			if m.holder != nil {
				holder = fmt.Sprintf("thread %d (%s)", m.holder.id, m.holder.name)
				waitsFor[w] = m.holder
			}
			waitsOn[w] = fmt.Sprintf("mutex %q held by %s", m.name, holder)
		}
	}
	for _, rw := range e.rwmutexes {
		describe := func(w *Thread, mode string) {
			var holder string
			switch {
			case rw.writer != nil:
				holder = fmt.Sprintf("writer thread %d", rw.writer.id)
				waitsFor[w] = rw.writer
			case len(rw.readers) > 0:
				holder = fmt.Sprintf("%d reader(s)", len(rw.readers))
			default:
				holder = "nobody"
			}
			waitsOn[w] = fmt.Sprintf("rwmutex %q (%s) held by %s", rw.name, mode, holder)
		}
		for _, w := range rw.waitingW {
			describe(w, "write")
		}
		for _, w := range rw.waitingR {
			describe(w, "read")
		}
	}
	for _, c := range e.conds {
		for _, w := range c.waiting {
			waitsOn[w] = fmt.Sprintf("condition %q (no future signal)", c.name)
		}
	}
	for _, b := range e.barriers {
		for _, w := range b.waiting {
			waitsOn[w] = fmt.Sprintf("barrier #%d (%d of %d arrived)", b.id, len(b.waiting), b.n)
		}
	}
	for _, t := range e.threads {
		for _, j := range t.joiners {
			waitsOn[j] = fmt.Sprintf("join of thread %d (%s), itself blocked", t.id, t.name)
		}
	}

	var lines []string
	for t, why := range waitsOn {
		lines = append(lines, fmt.Sprintf("  thread %d (%s) waits on %s", t.id, t.name, why))
	}
	sort.Strings(lines)

	if cycle := findCycle(waitsFor); len(cycle) > 0 {
		var names []string
		for _, t := range cycle {
			names = append(names, fmt.Sprintf("thread %d", t.id))
		}
		lines = append(lines, "  lock cycle: "+strings.Join(names, " → "))
	}
	return strings.Join(lines, "\n")
}

// queueBlocked returns every thread parked in a synchronization queue —
// mutex and rwmutex waiters, condition and barrier waits, joiners. Such
// threads are blocked at their resume channel without appearing in the
// parked list or the ready queue, so watchdog teardown can release them
// safely.
func (e *Engine) queueBlocked() []*Thread {
	var out []*Thread
	for _, m := range e.mutexes {
		out = append(out, m.waiters...)
	}
	for _, rw := range e.rwmutexes {
		out = append(out, rw.waitingW...)
		out = append(out, rw.waitingR...)
	}
	for _, c := range e.conds {
		out = append(out, c.waiting...)
	}
	for _, b := range e.barriers {
		out = append(out, b.waiting...)
	}
	for _, t := range e.threads {
		out = append(out, t.joiners...)
	}
	return out
}

// stateDump renders every thread's state — virtual clock, operation
// count, and whether it is exited, parked (and on what operation),
// blocked in a synchronization queue, ready to resume after an executed
// operation, or still running — plus the blockage report.
// Watchdog-timeout errors carry it so a hung cell is diagnosable from its
// error alone.
func (e *Engine) stateDump() string {
	waiting := map[*Thread]string{}
	for _, t := range e.parked {
		waiting[t] = "parked at"
	}
	for _, t := range e.queueBlocked() {
		waiting[t] = "blocked at"
	}
	for _, w := range e.ready {
		waiting[w.t] = "ready after"
	}
	var lines []string
	for _, t := range e.threads {
		var line string
		switch {
		case t.done:
			line = fmt.Sprintf("  thread %d (%s): clock %d, %d ops, exited",
				t.id, t.name, uint64(t.clock), t.opCount)
		case waiting[t] != "":
			line = fmt.Sprintf("  thread %d (%s): clock %d, %d ops, %s %s",
				t.id, t.name, uint64(t.clock), t.opCount, waiting[t], t.pending.kind)
		default:
			// The thread's body goroutine may still be executing (a
			// runner the watchdog could not park): reading its pending
			// op or op count here would be a host-level data race. The
			// clock is advanced only by the engine, which has stopped.
			line = fmt.Sprintf("  thread %d (%s): clock %d, running",
				t.id, t.name, uint64(t.clock))
		}
		lines = append(lines, line)
	}
	if br := e.blockageReport(); br != "" {
		lines = append(lines, br)
	}
	return strings.Join(lines, "\n")
}

// findCycle returns one cycle in the waits-for graph, if any, ending with
// the thread that closes it. The result is deterministic: starts are
// probed in thread-id order and the cycle is rotated so its lowest-id
// thread comes first, so blockage reports (and their golden tests) never
// depend on map iteration order.
func findCycle(edges map[*Thread]*Thread) []*Thread {
	starts := make([]*Thread, 0, len(edges))
	for start := range edges {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].id < starts[j].id })
	for _, start := range starts {
		seen := map[*Thread]int{}
		var path []*Thread
		t := start
		for t != nil {
			if i, ok := seen[t]; ok {
				return canonicalCycle(append(path[i:], t))
			}
			seen[t] = len(path)
			path = append(path, t)
			t = edges[t]
		}
	}
	return nil
}

// canonicalCycle rotates a cycle (whose last element repeats the first)
// so the lowest-id thread leads.
func canonicalCycle(c []*Thread) []*Thread {
	if len(c) < 2 {
		return c
	}
	ring := c[:len(c)-1] // drop the closing repeat
	min := 0
	for i, t := range ring {
		if t.id < ring[min].id {
			min = i
		}
	}
	out := make([]*Thread, 0, len(c))
	for i := 0; i < len(ring); i++ {
		out = append(out, ring[(min+i)%len(ring)])
	}
	return append(out, ring[min])
}
