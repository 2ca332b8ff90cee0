#!/bin/sh
# bench.sh — run the headline experiment benchmarks (Fig 7 game
# convergence, Fig 9 horizon sweep) plus the solver microbenchmarks and
# print the raw benchstat-compatible lines. Then print the continental
# scaling curve (cold monolithic horizon solves, n120 to n2000).
# BENCH_3.json, BENCH_4.json and BENCH_5.json are historical records:
# the benchmarks, tiers and coordinated solver they measured were
# removed, so nothing refreshes them.
#
# Usage: scripts/bench.sh [count]
#   count — repetitions per benchmark (default 3); the printed lines feed
#   benchstat directly. The scaling curve is measured once.
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
echo "== continental scaling (cold monolithic solves, full sizes) =="
go run ./cmd/experiments -fig continental-scaling -bench-full
