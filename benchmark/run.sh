#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given. Everything the build and the run write stays under
# .bench_build/ in the checkout. Run from the checkout's root:
#
#   bash benchmark/run.sh --workload durable --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $root is not a checkout of the repository (no go.mod, no internal/): nothing to measure" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The build writes only inside the checkout, and never fetches a toolchain
# (the module has no dependency but the checkout, so nothing else to fetch).
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
started=$(date +%s.%N)
go build -C benchmark -o "$build/o2pc-benchmark" .
# go build is not part of setup_s; the all-workloads mode prints it as build_s.
export O2PC_BENCHMARK_BUILD_S=$(echo "$(date +%s.%N) $started" | awk '{printf "%.3f", $1 - $2}')
exec "$build/o2pc-benchmark" -work "$build" "$@"
