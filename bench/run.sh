#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it. Build
# output and Go's build cache stay inside the checkout, under .bench_build/.
#
#   bash bench/run.sh --workload aero-sat --seed 7 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local go build -o "$out/aero-bench" ./bench
exec "$out/aero-bench" "$@"
