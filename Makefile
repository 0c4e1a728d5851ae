# Makefile — build, test, and reproduce the Kard paper's evaluation.
#
# The repro targets drive cmd/kardbench through the parallel evaluation
# harness (internal/harness.RunMatrix): cells fan out across JOBS workers
# and finished cells are cached as JSON under CACHEDIR, so re-running a
# repro after an interruption (or tweaking one table) only simulates what
# is missing.

GO       ?= go
JOBS     ?= $(shell nproc 2>/dev/null || echo 4)
CACHEDIR ?= .cache/kard
SEED     ?= 1

.PHONY: all build test vet fmt-check race bench bench-json bench-gate bench-parallel chaos fuzz daemon killrecover soak metrics-smoke trace-smoke cluster-smoke partition-smoke diskfault-smoke docs-check govulncheck repro repro-fast clean-cache clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails when gofmt would change any file, listing them.
# CI runs the same check.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l: files need formatting:" >&2; echo "$$out" >&2; exit 1; fi

# The repo is itself about race detection; it must be clean under the real
# Go race detector, including the parallel harness.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$'

# Snapshot the hot-path benchmarks (mem + sim) as BENCH_<date>.json:
# median-of-3 ns/op, allocs/op, bytes/op, and derived accesses/sec per
# benchmark. Compare snapshots over time to track the fast path.
bench-json:
	$(GO) run ./cmd/benchgate -out BENCH_$(shell date +%Y-%m-%d).json

# Gate the hot path against the committed baseline: fails on a >15% ns/op
# regression or any allocs/op increase. CI runs this on every push; after
# an intentional, understood change in hot-path cost, re-record with
#   go run ./cmd/benchgate -out BENCH_baseline.json -count 5 -pad 30
bench-gate:
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json

# The batched-execution benchmarks (DESIGN.md §12) on their own: the
# steady-state access loops (plain, metrics, traced), 4-thread batched
# replay, the sync-point drain stress, Sweep, and buffered Compute — all
# must report 0 allocs/op.
bench-parallel:
	$(GO) test -run '^$$' -bench 'AccessSteadyState|AccessBatchedParallel|ReconcileSyncPoint|Sweep|ComputeBuffered' \
		-benchmem -count 3 ./internal/sim/

# Fault-injection soak: race verdicts must be identical with and without
# the default fault plan (all faults transient or degradable), and the
# injected/retried/degraded counters must be nonzero.
chaos:
	$(GO) run ./cmd/kardbench -chaos -seed $(SEED) -jobs $(JOBS)

# Fuzz the allocator's graceful degradation under arbitrary fault plans,
# then its unique-page placement invariants, then the dTLB against the
# page-keyed reference CLOCK.
fuzz:
	$(GO) test -fuzz=FuzzAllocatorFaults -fuzztime=20s -run '^$$' ./internal/alloc/
	$(GO) test -fuzz=FuzzUniquePageSequence -fuzztime=10s -run '^$$' ./internal/alloc/
	$(GO) test -fuzz=FuzzTLBDifferential -fuzztime=10s -run '^$$' ./internal/mem/

# In-process kardd service smoke: run the real-world workloads as
# detection jobs through a crash-and-recover cycle; verdicts must be
# byte-identical across the uninterrupted, crash-recovered, and
# replay-only passes.
daemon:
	$(GO) run ./cmd/kardbench -daemon -scale 0.05 -seed $(SEED) -jobs $(JOBS)

# End-to-end crash-safety smoke against the real daemon binary: SIGKILL
# kardd mid-run, restart it over the same state directory, diff the
# verdicts against an uninterrupted run, then check a SIGTERM drain
# journals a drain record and exits 0.
killrecover:
	./scripts/killrecover.sh

# Crash soak: three SIGKILL/resume rounds before the final recovery.
soak:
	./scripts/killrecover.sh 3

# Observability smoke: start kardd with -listen, scrape /metrics twice
# via cmd/metricscheck (must parse, no duplicate families, counters
# monotonic), then drain with SIGTERM.
metrics-smoke:
	./scripts/metricssmoke.sh

# Tracing smoke (DESIGN.md §13): two same-seed `kardbench -trace` runs
# must export byte-identical Chrome trace JSON that validates under
# `metricscheck -trace`; a live `kardd -trace` must serve a valid export
# at /debug/trace, the kard_trace_* counters on /metrics, and per-race
# forensic records at /jobs/<id>/races/<n>/trace.
trace-smoke:
	./scripts/tracesmoke.sh

# Sharded-cluster smoke: run the same jobs single-process and through
# `kardd -cluster 2`, SIGKILL one subprocess worker mid-run, and require
# the cluster verdicts to be byte-identical (DESIGN.md §9, OPERATIONS.md).
cluster-smoke:
	./scripts/clusterkill.sh

# Partition-tolerance smoke: the same jobs through a supervised
# `kardd -cluster 2 -chaos-net` run — every worker RPC passes a seeded
# network fault transport and the coordinator is SIGKILLed and restarted
# mid-run; verdicts must stay byte-identical to a fault-free
# single-process run (DESIGN.md §9, OPERATIONS.md "Network incidents").
partition-smoke:
	./scripts/partition.sh

# Storage-fault smoke: the same jobs through `kardd -chaos-disk` — every
# journal and cache I/O passes a seeded disk-fault shim (short writes,
# ENOSPC, fsync EIO, read bit flips, lost renames) with aggressive WAL
# compaction, plus a SIGKILL mid-run; verdicts must stay byte-identical
# to a fault-free run and kardfsck must report the surviving state clean
# (DESIGN.md §11, OPERATIONS.md "Disk incidents").
diskfault-smoke:
	./scripts/diskfault.sh

# Docs-link check: every `DESIGN.md §N` reference in Go sources and
# Markdown must resolve to a real `## N.` heading in DESIGN.md.
docs-check:
	./scripts/docscheck.sh

# Known-vulnerability scan over the module graph (needs network access to
# fetch the tool and the vulnerability database; CI runs it on push).
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# Full-fidelity regeneration of every table and figure (EXPERIMENTS.md is
# written from such a run). Sequential this takes ~24 minutes; with the
# parallel harness it is bounded by ~total/JOBS, and a warm cache makes
# re-runs nearly free.
repro:
	$(GO) run ./cmd/kardbench -all -scale 1 -seed $(SEED) \
		-jobs $(JOBS) -cachedir $(CACHEDIR) -progress -o results_full.txt
	@echo "wrote results_full.txt"

# Reduced-scale smoke reproduction (~a minute): same tables, smaller
# critical-section entry counts. Overhead percentages stay representative.
repro-fast:
	$(GO) run ./cmd/kardbench -all -scale 0.05 -seed $(SEED) \
		-jobs $(JOBS) -cachedir $(CACHEDIR) -progress

clean-cache:
	rm -rf $(CACHEDIR)

clean: clean-cache
	$(GO) clean
