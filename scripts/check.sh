#!/bin/sh
# check.sh — the full local gate: gofmt, vet, build, race-enabled tests, and a
# one-iteration benchmark smoke pass (catches benchmarks that stopped
# compiling or panic without paying for a full measurement run).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
# Every Go file must be gofmt-clean: any file gofmt -l lists fails the gate.
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt needed on:"; echo "$unformatted"; exit 1; }

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== benchmark smoke (1 iteration each) =="
go test -run XXX -bench . -benchtime 1x .
go test -run XXX -bench . -benchtime 1x ./internal/qp ./internal/core ./internal/linalg ./internal/game ./internal/daemon

echo "== BENCH_2.json guard =="
# The perf record must exist and its experiment metrics must agree with
# the BENCH_1 baseline: a faster solver that changes mean_iters_cap100 or
# best_horizon changed the experiments' answers, not just their speed.
[ -f BENCH_2.json ] || { echo "BENCH_2.json missing (run scripts/bench.sh)"; exit 1; }
for metric in mean_iters_cap100 best_horizon; do
	v1=$(grep -o "\"$metric\": [0-9.]*" BENCH_1.json | tail -1 | sed 's/.*: //')
	v2=$(grep -o "\"$metric\": [0-9.]*" BENCH_2.json | tail -1 | sed 's/.*: //')
	[ -n "$v1" ] && [ -n "$v2" ] || { echo "metric $metric missing from a BENCH json"; exit 1; }
	awk "BEGIN { exit !($v1 == $v2) }" || {
		echo "metric $metric drifted: BENCH_1=$v1 BENCH_2=$v2"; exit 1; }
done
echo "BENCH_2.json present, experiment metrics match BENCH_1"

echo "== BENCH_3.json guard =="
# Same contract for the batched-solving record: sessions, factorization
# reuse, and the small-band kernels must leave the experiment answers
# exactly where BENCH_1 put them, and the session-resolve record must
# show the reuse tiers actually firing.
[ -f BENCH_3.json ] || { echo "BENCH_3.json missing (run scripts/bench.sh)"; exit 1; }
for metric in mean_iters_cap100 best_horizon; do
	v1=$(grep -o "\"$metric\": [0-9.]*" BENCH_1.json | tail -1 | sed 's/.*: //')
	v3=$(grep -o "\"$metric\": [0-9.]*" BENCH_3.json | tail -1 | sed 's/.*: //')
	[ -n "$v1" ] && [ -n "$v3" ] || { echo "metric $metric missing from a BENCH json"; exit 1; }
	awk "BEGIN { exit !($v1 == $v3) }" || {
		echo "metric $metric drifted: BENCH_1=$v1 BENCH_3=$v3"; exit 1; }
done
a3=$(grep -o '"allocs_per_op": [0-9.]*' BENCH_3.json | tail -1 | sed 's/.*: //')
[ "$a3" = "2" ] || { echo "BENCH_3 warm solve allocs_per_op=$a3, want 2 (telemetry off)"; exit 1; }
rr=$(grep -o '"reuse_rate": [0-9.]*' BENCH_3.json | tail -1 | sed 's/.*: //')
awk "BEGIN { exit !($rr > 0) }" || { echo "BENCH_3 reuse_rate=$rr: reuse tiers never fired"; exit 1; }
echo "BENCH_3.json present, experiment metrics match BENCH_1, reuse tiers live"

echo "== telemetry overhead guard =="
# The disabled-telemetry path must stay free: BenchmarkSolveWarm holds
# the warm-solve contract at exactly 2 allocs/op with hooks off, so any
# instrumentation leaking into the hot path fails here. The telemetry
# package itself must also stay vet-clean.
go vet ./internal/telemetry
bench_out=$(go test -run XXX -bench BenchmarkSolveWarm -benchtime 10x ./internal/qp)
echo "$bench_out"
echo "$bench_out" | awk '
	/BenchmarkSolveWarm/ {
		seen++
		for (i = 1; i <= NF; i++) if ($i == "allocs/op" && $(i-1) != 2) bad = 1
	}
	END {
		if (!seen) { print "BenchmarkSolveWarm missing from bench output"; exit 1 }
		if (bad)   { print "warm solve no longer 2 allocs/op with telemetry disabled"; exit 1 }
		print "warm solve holds 2 allocs/op with telemetry disabled"
	}'

echo "== BENCH_4.json guard =="
# The decomposition scaling record must exist, every measured point must
# sit within 1% of the monolithic optimum (and never below it beyond
# solver tolerance — that would mean an infeasible capacity split), and
# the n=1000 8-shard point must hold the headline speedup.
[ -f BENCH_4.json ] || { echo "BENCH_4.json missing (run scripts/bench.sh)"; exit 1; }
grep -o '"cost_gap": [-0-9.e+]*' BENCH_4.json | sed 's/.*: //' | awk '
	{ if ($1 != -1 && ($1 > 0.01 || $1 < -1e-4)) { bad = 1; print "cost_gap " $1 " out of [-1e-4, 0.01]" } }
	END { exit bad }' || { echo "BENCH_4 cost gap guard failed"; exit 1; }
sp=$(awk '/"name": "n1000-shards8"/ { f = 1 } f && /"speedup":/ { gsub(/[^0-9.]/, ""); print; exit }' BENCH_4.json)
[ -n "$sp" ] || { echo "BENCH_4 n1000-shards8 record missing"; exit 1; }
awk "BEGIN { exit !($sp >= 3) }" || {
	echo "BENCH_4 n1000-shards8 speedup $sp < 3x vs monolithic"; exit 1; }
echo "BENCH_4.json present, cost gaps within 1%, n1000-shards8 speedup ${sp}x"

echo "== BENCH_5.json guard =="
# The incremental-coordination record must exist; every point with a
# monolithic reference must stay inside the optimality window (gap in
# [-1e-4, 1%]) and must not be slower than the monolithic solve; the
# n=1000 8-shard point must beat BENCH_4's from-scratch coordination at
# least 2x. (-1 cost gaps / 0 speedups mark sizes measured without a
# monolithic reference.)
[ -f BENCH_5.json ] || { echo "BENCH_5.json missing (run scripts/bench.sh)"; exit 1; }
grep -o '"cost_gap": [-0-9.e+]*' BENCH_5.json | sed 's/.*: //' | awk '
	{ if ($1 != -1 && ($1 > 0.01 || $1 < -1e-4)) { bad = 1; print "cost_gap " $1 " out of [-1e-4, 0.01]" } }
	END { exit bad }' || { echo "BENCH_5 cost gap guard failed"; exit 1; }
awk '
	/"name":/    { name = $2; gsub(/[",]/, "", name) }
	/"speedup":/ { sp = $2; gsub(/[,]/, "", sp)
		if (sp + 0 != 0 && sp + 0 < 1) { bad = 1
			print "BENCH_5 " name " speedup " sp " < 1: slower than monolithic" } }
	END { exit bad }' BENCH_5.json || { echo "BENCH_5 speedup guard failed"; exit 1; }
sp5=$(awk '/"name": "n1000-shards8"/ { f = 1 } f && /"speedup_vs_bench4":/ { sub(/.*: */, ""); gsub(/,/, ""); print; exit }' BENCH_5.json)
[ -n "$sp5" ] || { echo "BENCH_5 n1000-shards8 record missing"; exit 1; }
awk "BEGIN { exit !($sp5 >= 2) }" || {
	echo "BENCH_5 n1000-shards8 speedup ${sp5}x vs BENCH_4 coordination, want >= 2x"; exit 1; }
echo "BENCH_5.json present, cost gaps within 1%, no size slower than monolithic, n1000-shards8 ${sp5}x vs BENCH_4"

echo "== decomposition scaling smoke =="
# End-to-end smoke of the coordinated sharded solve against the
# monolithic reference at CI-friendly sizes; the shape check enforces
# convergence and the 1% gap on every smoke point.
go run ./cmd/experiments -fig decomp-scaling

echo "== fault-injection smoke (robust-outage under -race) =="
# Drives the outage/recovery experiment end to end — the controller must
# degrade through the ladder while the DC is down and re-converge after
# restore — and prints the degradation summary for eyeballing.
go run -race ./cmd/experiments -fig robust-outage

echo "== deadline guard (anytime ladder under a stall fault) =="
# The daemon package must be vet-clean, and a budgeted run under an
# injected solver stall must finish every period inside budget+grace
# while actually exercising the anytime rung: zero hard overruns over
# 200 periods AND anytime rungs > 0, or the deadline plumbing regressed.
go vet ./internal/daemon
deadline_out=$(go run ./cmd/dsppsim -periods 200 -horizon 12 -metros 12 \
	-budget 16ms -predictor persistence \
	-fault "stall:start=2,end=400,factor=13" | tail -3)
echo "$deadline_out"
echo "$deadline_out" | awk '
	/^budget / {
		seen = 1
		for (i = 1; i <= NF; i++) {
			if ($(i+1) == "period" && $(i+2) == "overruns")
				{ split($i, o, "/"); overruns = o[1]; periods = o[2] }
			if ($i == "rungs") rungs = $(i+1)
		}
	}
	END {
		if (!seen)          { print "budget summary line missing from dsppsim output"; exit 1 }
		if (periods < 200)  { print "expected >=200 budgeted periods, got " periods; exit 1 }
		if (overruns != 0)  { print overruns " period overruns under the stall schedule, want 0"; exit 1 }
		if (rungs + 0 <= 0) { print "anytime rungs " rungs ": deadline ladder never engaged"; exit 1 }
		print "deadline guard holds: " overruns "/" periods " overruns, " rungs " anytime rungs"
	}'

echo "== attribution guard (provenance identity + free disabled path) =="
# The provenance layer's two contracts. Disabled: no hub means no
# attribution work at all — the 2-allocs/op warm-solve guard above
# already pins the solver hot path, and TestRunNoTelemetryNoAttribution
# pins the engine loop. Enabled: on the fault-injected robust-outage
# scenario every period's resource+bandwidth+reconfig+shed must sum to
# the reported period cost (shed imputed at the soft-relaxation penalty)
# within 1e-9 relative, and /statusz must serve the same numbers from
# the ring; the continental run checks the same identity across 100
# monolithic continental MPC periods, with every DC's quota equal to its
# instance capacity. The coordination critical path is covered by the
# decomp Solver trace test (TestSolverTraceCriticalPaths) and
# telemetry's TestCriticalPaths.
go test -run 'TestRunEmitsAttribution|TestRunNoTelemetryNoAttribution' ./internal/sim
go test -run 'TestContinentalAttributionEndToEnd' .
echo "attribution identity holds (outage + continental), disabled path stays free"

echo "All checks passed."
