#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash benchmark/run.sh -seed 1 -out .bench_build/results.json   # all four workloads, both passes
#   bash benchmark/run.sh --workload hosted-hot --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build and module caches, the
# binary, the data directories — stays under .bench_build/ in the repository
# root, so a run reads and writes nothing outside its checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"

export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

GITCITE_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export GITCITE_BENCH_COMMIT

go build -C "$root/benchmark" -o "$build/gitcite-bench" .
cd "$root"
exec "$build/gitcite-bench" "$@"
