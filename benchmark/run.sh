#!/usr/bin/env bash
# Builds dcfbench from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash benchmark/run.sh --workload fig4-paper --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, scratch files, CPU
# profiles and the JSON reports (under .bench_build/out/).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

(cd "$root/benchmark" && go build -buildvcs=false -o "$build/dcfbench" ./dcfbench)
cd "$root"
exec "$build/dcfbench" -out "$build/out" "$@"
