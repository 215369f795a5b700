#!/usr/bin/env bash
# Builds the mdsperf benchmark from this checkout's source and runs it.
# Run from the repository root; flags pass through to the benchmark:
#
#   bash mdsperf/run.sh --workload paper-gnp --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -eu
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C mdsperf build -o "$out/mdsperf" .
exec "$out/mdsperf" --out "$out" "$@"
