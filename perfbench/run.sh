#!/usr/bin/env bash
# Builds the benchmark and the trace validator from source into
# .bench_build/ under the current directory (the repository root), then
# runs the benchmark with the given arguments. Every build artefact,
# temporary file and state directory stays under .bench_build/.
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 40 --trace 0
set -eu
root=$(pwd)
[ -f "$root/go.mod" ] || { echo "perfbench: no go.mod in $root; run from the repository root" >&2; exit 2; }
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
# The Go toolchain's caches, module path and telemetry go to .bench_build/
# too, so nothing is written under the home directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/metricscheck" kard/cmd/metricscheck) >&2
exec "$out/bin/perfbench" --workdir "$out" --metricscheck "$out/bin/metricscheck" "$@"
