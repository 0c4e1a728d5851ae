package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"kard/internal/obs"
)

// WriteChrome renders the tracer's events as Chrome trace-event JSON
// (the "JSON Array Format" with a traceEvents envelope), loadable in
// Perfetto and chrome://tracing.
//
// The export is canonical: metadata events first (processes then
// threads, ascending pid/tid), then every recorded event sorted by
// (pid, tid, per-track sequence). Within a track the sequence order is
// the record order and timestamps are monotonically non-decreasing, so
// two tracers fed identical deterministic inputs — whatever goroutine
// interleaving flushed their tracks — emit byte-identical JSON. The
// same-seed byte-identity acceptance check diffs exactly this output.
//
// JSON is built by hand with a fixed field order; encoding/json would
// also be deterministic but writes map-typed args in sorted-key order,
// which is harder to pin than an explicit byte layout.
func (tr *Tracer) WriteChrome(w io.Writer) error {
	if tr == nil {
		_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
		return err
	}
	events, procs, threads := tr.snapshot()
	obs.Std.TraceExports.Inc()

	sort.Slice(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Seq < b.Seq
	})

	buf := make([]byte, 0, 256)
	out := func(b []byte) error {
		_, err := w.Write(b)
		return err
	}
	if err := out([]byte("{\"traceEvents\":[")); err != nil {
		return err
	}
	first := true
	emit := func() error {
		if !first {
			if err := out([]byte(",\n")); err != nil {
				return err
			}
		} else {
			first = false
			if err := out([]byte("\n")); err != nil {
				return err
			}
		}
		return out(buf)
	}

	// Metadata: process names, then thread (track) names, ascending.
	pids := make([]int, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		buf = buf[:0]
		buf = append(buf, `{"name":"process_name","ph":"M","pid":`...)
		buf = strconv.AppendInt(buf, int64(pid), 10)
		buf = append(buf, `,"tid":0,"ts":0,"args":{"name":`...)
		buf = appendJSONString(buf, procs[pid])
		buf = append(buf, "}}"...)
		if err := emit(); err != nil {
			return err
		}
	}
	tkeys := make([]trackKey, 0, len(threads))
	for k := range threads {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool {
		if tkeys[i].pid != tkeys[j].pid {
			return tkeys[i].pid < tkeys[j].pid
		}
		return tkeys[i].tid < tkeys[j].tid
	})
	for _, k := range tkeys {
		buf = buf[:0]
		buf = append(buf, `{"name":"thread_name","ph":"M","pid":`...)
		buf = strconv.AppendInt(buf, int64(k.pid), 10)
		buf = append(buf, `,"tid":`...)
		buf = strconv.AppendInt(buf, int64(k.tid), 10)
		buf = append(buf, `,"ts":0,"args":{"name":`...)
		buf = appendJSONString(buf, threads[k])
		buf = append(buf, "}}"...)
		if err := emit(); err != nil {
			return err
		}
	}

	for i := range events {
		buf = appendEvent(buf[:0], &events[i])
		if err := emit(); err != nil {
			return err
		}
	}
	return out([]byte("\n]}\n"))
}

// appendEvent renders one event with a fixed field order.
func appendEvent(buf []byte, ev *Event) []byte {
	buf = append(buf, `{"name":`...)
	buf = appendJSONString(buf, ev.Name)
	if ev.Cat != "" {
		buf = append(buf, `,"cat":`...)
		buf = appendJSONString(buf, ev.Cat)
	}
	buf = append(buf, `,"ph":"`...)
	buf = append(buf, ev.Ph)
	buf = append(buf, `","pid":`...)
	buf = strconv.AppendInt(buf, int64(ev.Pid), 10)
	buf = append(buf, `,"tid":`...)
	buf = strconv.AppendInt(buf, int64(ev.Tid), 10)
	buf = append(buf, `,"ts":`...)
	buf = strconv.AppendInt(buf, ev.Ts, 10)
	if ev.Ph == 'i' {
		buf = append(buf, `,"s":"t"`...) // instant scope: thread
	}
	if ev.Span != 0 || ev.Parent != 0 || ev.ArgKey != "" || ev.Arg2Key != "" {
		buf = append(buf, `,"args":{`...)
		sep := false
		if ev.Span != 0 {
			buf = append(buf, `"span":"`...)
			buf = appendHex(buf, ev.Span)
			buf = append(buf, '"')
			sep = true
		}
		if ev.Parent != 0 {
			if sep {
				buf = append(buf, ',')
			}
			buf = append(buf, `"parent":"`...)
			buf = appendHex(buf, ev.Parent)
			buf = append(buf, '"')
			sep = true
		}
		if ev.ArgKey != "" {
			if ev.ArgStr != "" {
				if sep {
					buf = append(buf, ',')
				}
				buf = appendJSONString(buf, ev.ArgKey)
				buf = append(buf, ':')
				buf = appendJSONString(buf, ev.ArgStr)
				sep = true
			}
			if ev.ArgIntOK {
				if sep {
					buf = append(buf, ',')
				}
				if ev.ArgStr != "" {
					// Both forms carried: suffix the numeric key so the
					// two args don't collide.
					buf = appendJSONString(buf, ev.ArgKey+"_n")
				} else {
					buf = appendJSONString(buf, ev.ArgKey)
				}
				buf = append(buf, ':')
				buf = strconv.AppendInt(buf, ev.ArgInt, 10)
				sep = true
			}
		}
		if ev.Arg2Key != "" {
			if sep {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, ev.Arg2Key)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, ev.Arg2Int, 10)
		}
		buf = append(buf, '}')
	}
	return append(buf, '}')
}

// appendHex writes a fixed-width 16-digit lowercase hex ID.
func appendHex(buf []byte, v uint64) []byte {
	return fmt.Appendf(buf, "%016x", v)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaping the
// characters JSON requires (quotes, backslash, control bytes). Inputs
// are ASCII identifiers and site labels; anything else is escaped
// byte-wise, which is valid JSON even if not the shortest form.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c >= 0x20:
			buf = append(buf, c)
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(buf, '"')
}
