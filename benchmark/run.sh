#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Everything
# it writes (binary, Go build cache, reports, traces) goes under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache" GOTOOLCHAIN=local
go build -C benchmark -o ../.bench_build/benchmark .
exec .bench_build/benchmark "$@"
