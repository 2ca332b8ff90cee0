package qp

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dspp/internal/telemetry"
)

// TestTelemetryCounters drives warm and cold solves through an enabled
// hub and checks the counters agree with the returned results: the
// registry is an exact ledger, not a sampling. A warm start the solver
// refuses (here a NaN capsule) counts as the cold start it became.
func TestTelemetryCounters(t *testing.T) {
	var buf bytes.Buffer
	hub := telemetry.New(telemetry.WithTraceWriter(&buf))
	rng := rand.New(rand.NewSource(3))
	p := randomFeasibleQP(rng, 20, 40)

	opts := DefaultOptions()
	opts.Hooks = hub.QPHooks()
	cold, err := solveOnce(p, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := solveOnce(p, opts, &WarmStart{X: cold.X, Z: cold.IneqDuals})
	if err != nil {
		t.Fatal(err)
	}
	nan := &WarmStart{X: slices.Clone(cold.X)}
	nan.X[0] = math.NaN()
	refused, err := solveOnce(p, opts, nan)
	if err != nil {
		t.Fatal(err)
	}

	snap := hub.Registry().Snapshot()
	if got := snap[telemetry.MetricQPSolves]; got != 3 {
		t.Fatalf("solves = %v, want 3", got)
	}
	if got := snap[telemetry.MetricQPWarmStarts]; got != 1 {
		t.Fatalf("warm starts = %v, want 1", got)
	}
	if got := snap[telemetry.MetricQPColdStarts]; got != 2 {
		t.Fatalf("cold starts = %v, want 2", got)
	}
	wantIters := float64(cold.Iterations + warmRes.Iterations + refused.Iterations)
	if got := snap[telemetry.MetricQPIterations]; got != wantIters {
		t.Fatalf("iterations = %v, want %v", got, wantIters)
	}
	// Every IPM iteration factorizes exactly once (the bump retry refills
	// the same factorization slot), and each cold start once before the
	// first iteration, so the ledgers must agree.
	if got, want := snap[telemetry.MetricQPFactorizations], wantIters+2; got != want {
		t.Fatalf("factorizations = %v, want %v (iterations + cold starts)", got, want)
	}
	if got := snap[telemetry.MetricQPSolveIterations+"_count"]; got != 3 {
		t.Fatalf("iteration histogram count = %v, want 3", got)
	}
	if got := snap[telemetry.MetricQPNumericalFailures]; got != 0 {
		t.Fatalf("numerical failures = %v, want 0", got)
	}

	// The JSONL stream must carry one qp_solve span per solve whose
	// iteration attributes replay to the registry totals.
	events, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum := telemetry.Summarize(events)
	if got := sum.Count(telemetry.SpanQPSolve); got != 3 {
		t.Fatalf("qp_solve spans = %d, want 3", got)
	}
	if got := sum.AttrSum(telemetry.SpanQPSolve, "iterations"); got != wantIters {
		t.Fatalf("span iterations = %v, registry %v", got, wantIters)
	}
	if got := sum.AttrSum(telemetry.SpanQPSolve, "warm"); got != 1 {
		t.Fatalf("spans with warm=1: %v, want 1", got)
	}
}

// TestTelemetryMaxIterOutcome checks the failure-mode counters: a solve
// starved of iterations must land in dspp_qp_maxiter_total.
func TestTelemetryMaxIterOutcome(t *testing.T) {
	hub := telemetry.New()
	rng := rand.New(rand.NewSource(5))
	p := randomFeasibleQP(rng, 30, 60)
	opts := DefaultOptions()
	opts.MaxIterations = 1
	opts.Tolerance = 1e-12
	opts.Hooks = hub.QPHooks()
	if _, err := solveOnce(p, opts, nil); err == nil {
		t.Skip("1-iteration solve unexpectedly converged")
	}
	if got := hub.Registry().Snapshot()[telemetry.MetricQPMaxIter]; got != 1 {
		t.Fatalf("maxiter counter = %v, want 1", got)
	}
}

// TestTelemetryLooseOutcome checks that a solve which runs to the cap and
// is then accepted at the loosened tolerance (no error) is flagged
// Result.Loose, still lands in dspp_qp_maxiter_total, and that its
// qp_solve span says outcome=loose.
func TestTelemetryLooseOutcome(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomFeasibleQP(rng, 30, 60)
	for limit := 1; limit <= DefaultOptions().MaxIterations; limit++ {
		var buf bytes.Buffer
		hub := telemetry.New(telemetry.WithTraceWriter(&buf))
		opts := DefaultOptions()
		opts.MaxIterations = limit
		opts.Tolerance = 1e-12
		opts.Hooks = hub.QPHooks()
		res, err := solveOnce(p, opts, nil)
		if err != nil || res.Iterations < limit {
			continue // failed at the cap, or converged before it
		}
		if !res.Loose {
			t.Fatalf("cap %d: loosely accepted solve without Result.Loose", limit)
		}
		if got := hub.Registry().Snapshot()[telemetry.MetricQPMaxIter]; got != 1 {
			t.Fatalf("cap %d: maxiter counter = %v for a loosely accepted solve, want 1", limit, got)
		}
		events, err := telemetry.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 1 || events[0].Attrs["outcome"] != "loose" {
			t.Fatalf("cap %d: qp_solve spans %+v, want one with outcome=loose", limit, events)
		}
		return
	}
	t.Fatal("no iteration cap produced a loosely accepted solve")
}

// TestTelemetryDoesNotPerturbSolve pins that instrumentation is purely
// observational: identical problems solved with and without hooks walk
// the same iterates to the same answer.
func TestTelemetryDoesNotPerturbSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomFeasibleQP(rng, 25, 50)
	plain, err := solveOnce(p, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Hooks = telemetry.New().QPHooks()
	hooked, err := solveOnce(p, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Iterations != hooked.Iterations || plain.Objective != hooked.Objective {
		t.Fatalf("telemetry changed the solve: %d/%v vs %d/%v",
			plain.Iterations, plain.Objective, hooked.Iterations, hooked.Objective)
	}
	for i := range plain.X {
		if plain.X[i] != hooked.X[i] {
			t.Fatalf("x[%d] differs: %v vs %v", i, plain.X[i], hooked.X[i])
		}
	}
}
