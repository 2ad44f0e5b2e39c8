#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# — the binary, Go's build cache, its work directories and its telemetry
# counters — stays under .bench_build in the checkout.
#
#   bash benchmark/run.sh --workload cold-core --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/seabenchmark" .)
cd "$root"
exec "$build/seabenchmark" "$@"
