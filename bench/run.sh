#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:  bash bench/run.sh --workload quad-die-seq --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .bench_build/ and
# bench/out/ in the checkout; both are in .gitignore.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a chipletnoc checkout (go.mod and bench/go.mod must exist)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# the go command keeps its telemetry counters under the user's config directory
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C bench -o "$build/chipletnoc-bench" .
exec "$build/chipletnoc-bench" "$@"
