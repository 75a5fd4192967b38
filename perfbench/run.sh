#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# leave behind goes under .bench_build/ (build cache included), and the
# benchmark binary replaces this shell, so no other process outlives it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
