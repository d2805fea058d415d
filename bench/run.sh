#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the root of the checkout (Go build cache included,
# so nothing is written outside the checkout) and runs it with the given
# flags. Traces and scratch files go to bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/efind-bench" .
exec "$build/efind-bench" -out "$root/bench/out" "$@"
