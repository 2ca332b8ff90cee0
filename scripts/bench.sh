#!/bin/sh
# bench.sh — run the headline experiment benchmarks (Fig 7 game
# convergence, Fig 9 horizon sweep) plus the solver microbenchmarks and
# print the raw benchstat-compatible lines. Then run the continental
# decomposition scaling curve (sharded region QPs vs the monolithic
# horizon QP, n up to 2000) and refresh BENCH_4.json with its records.
# BENCH_3.json and BENCH_5.json are historical records: the benchmarks
# and tiers they measured were removed, so nothing refreshes them.
#
# Usage: scripts/bench.sh [count]
#   count — repetitions per benchmark (default 3); the printed lines feed
#   benchstat directly. The scaling curve is measured once (its
#   monolithic n=1000 reference dominates the script's runtime).
set -eu

cd "$(dirname "$0")/.."

COUNT="${1:-3}"

echo "== experiment benchmarks (benchtime 5x, count $COUNT) =="
go test -run XXX -bench 'BenchmarkFig7GameConvergence|BenchmarkFig9HorizonVsCost' \
	-benchtime 5x -count "$COUNT" .

echo
echo "== solver microbenchmarks (cold vs warm-started) =="
go test -run XXX -bench 'BenchmarkSolve$|BenchmarkSolveWarm' \
	-benchtime 100x -count "$COUNT" ./internal/qp

echo
echo "== decomposition shard scaling (BENCH_4, full continental sizes) =="
go run ./cmd/experiments -fig decomp-scaling -bench-full -bench-out BENCH_4.json
