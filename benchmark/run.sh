#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout of the repository:
#
#   bash benchmark/run.sh --workload game-fig7 --seed 2012 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary checkpoint directories) stays under .bench_build/ in the
# checkout. A build failure exits non-zero before any result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/benchmark" -o "$out/dsppbench" . >&2
exec "$out/dsppbench" "$@"
