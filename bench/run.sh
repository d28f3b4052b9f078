#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. This is BENCHMARK.json's command: unlike `go run ./bench`
# it keeps the build cache, the temporary files and the binary under
# .bench_build/ in the checkout, and needs no HOME.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="${GOPATH:-$build/gopath}"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
