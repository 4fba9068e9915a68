#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root; every build artifact (the binary and
# Go's build cache) stays under .bench_build, so a fresh checkout builds
# offline without touching anything outside it.
#
# Usage: bash bench/run.sh --workload fig14 --seed 1 --seconds 20 --trace 0
#        bash bench/run.sh -runs 3 -out results.json
#        bash bench/run.sh -compare a.json b.json
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
