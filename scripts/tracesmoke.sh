#!/usr/bin/env bash
# tracesmoke.sh — end-to-end smoke for the structured tracer (DESIGN.md §13).
#
# Three properties, against the real binaries:
#
#  1. Determinism: two `kardbench -trace` runs of the same campaign with
#     the same seed must export byte-identical Chrome trace JSON, and
#     neither may drop an event to the spool budget (kardbench must
#     report `dropped 0`): which events a full spool drops depends on
#     the order worker tracks flush, so a drop makes the export
#     nondeterministic.
#  2. Validity: the export must pass `metricscheck -trace` — well-formed
#     JSON, every 'E' closes a matching 'B' on its (pid, tid) row,
#     timestamps monotonic per row.
#  3. The live daemon: `kardd -trace -listen` must serve a valid export
#     at /debug/trace while jobs run, with the kard_trace_* counter
#     families present and monotonic on /metrics, and every job's races
#     must carry a forensic record at /jobs/<id>/races/<n>/trace.
#
# Environment: SCALE (default 0.05) trades fidelity for speed, ADDR
# overrides the daemon listen address. `make trace-smoke` runs this.
set -euo pipefail

SCALE="${SCALE:-0.05}"
ADDR="${ADDR:-127.0.0.1:7719}"
WORK="$(mktemp -d)"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$WORK"' EXIT

cd "$(dirname "$0")/.."
go build -o "$WORK/kardbench" ./cmd/kardbench
go build -o "$WORK/kardd" ./cmd/kardd
go build -o "$WORK/metricscheck" ./cmd/metricscheck

echo "== 1. same-seed campaign exports are complete and byte-identical"
for n in 1 2; do
  if ! "$WORK/kardbench" -table 6 -scale "$SCALE" -jobs 4 -trace "$WORK/t$n.json" >/dev/null 2>"$WORK/t$n.log" ||
    ! grep -q 'dropped 0)' "$WORK/t$n.log"; then
    echo "FAIL: trace campaign $n failed or did not report dropped 0:" >&2
    cat "$WORK/t$n.log" >&2
    exit 1
  fi
done
grep 'wrote trace' "$WORK/t1.log"
if ! cmp -s "$WORK/t1.json" "$WORK/t2.json"; then
  echo "FAIL: same-seed trace exports differ" >&2
  exit 1
fi
echo "   identical ($(wc -c <"$WORK/t1.json") bytes)"

echo "== 2. the export validates"
"$WORK/metricscheck" -trace "$WORK/t1.json"

echo "== 3. live daemon: /debug/trace, kard_trace_* counters, race provenance"
cat >"$WORK/jobs.json" <<EOF
[
  {"id": "ts-memcached", "workload": "memcached", "modes": ["kard"], "seeds": [1], "scale": $SCALE},
  {"id": "ts-aget",      "workload": "aget",      "modes": ["kard"], "seeds": [1], "scale": $SCALE}
]
EOF
"$WORK/kardd" -trace -dir "$WORK/state" -submit "$WORK/jobs.json" -listen "$ADDR" &
pid=$!

"$WORK/metricscheck" -url "http://$ADDR/metrics" -interval 500ms -wait 15s \
  -trace "http://$ADDR/debug/trace"

# Wait for the jobs to settle, then fetch one race's forensic record.
for _ in $(seq 1 100); do
  state="$(curl -fsS "http://$ADDR/jobs/ts-memcached" | grep -o '"state": *"[a-z]*"' | head -1)"
  case "$state" in *done*|*failed*) break ;; esac
  sleep 0.2
done
rt="$(curl -fsS "http://$ADDR/jobs/ts-memcached/races/0/trace")"
for field in '"jobId"' '"race"' '"provenance"' '"SyncEdges"'; do
  if ! grep -q "$field" <<<"$rt"; then
    echo "FAIL: race forensic record lacks $field:" >&2
    echo "$rt" >&2
    exit 1
  fi
done
echo "   race forensic record served with provenance"

kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: SIGTERM drain exited $rc, want 0" >&2
  exit 1
fi
echo "OK"
