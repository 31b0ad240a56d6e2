#!/usr/bin/env bash
# Builds the benchmark and runs it as one foreground process: no go run,
# no background jobs, no daemons. Everything it writes (build cache,
# binary, temp directories) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
rm -rf "$out/tmp" # whatever a run killed by its watchdog left behind
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off TMPDIR="$out/tmp"
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
