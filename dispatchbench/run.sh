#!/usr/bin/env bash
# Builds the benchmark and dispatchd from this checkout's sources, then runs
# one workload. Run it from the repository root:
#
#   bash dispatchbench/run.sh --workload nyc-day-nstdp --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and traced-run span files go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. Compile time is not part of any metric.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -C dispatchbench -o "$out/dispatchbench" . >&2
go build -o "$out/dispatchd" ./cmd/dispatchd >&2
exec "$out/dispatchbench" -bin "$out" "$@"
