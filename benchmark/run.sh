#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout and run it. Everything built or written — Go's build cache,
# the binary, stores, temp segments, results, traces — stays under
# .bench_build/ at the checkout's root.
#
#   bash benchmark/run.sh --workload lib_fit --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -seed 1 -out /somewhere/else      # all workloads
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" -out "$build/out" "$@"
