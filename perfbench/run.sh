#!/usr/bin/env bash
# Builds the benchmark and the parmbfd server from source, then runs the
# benchmark with the given arguments:
#
#	bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binaries, generated inputs, server logs, trace files) stays under
# .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/work"

# The go command's caches, temporary files and telemetry counters (kept
# under the user config directory) all stay under $out.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomodcache
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/parmbfd" parmbf/cmd/parmbfd
cd "$root"
exec "$out/perfbench" -parmbfd "$out/parmbfd" -work "$out/work" "$@"
