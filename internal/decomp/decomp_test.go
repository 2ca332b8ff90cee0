package decomp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"dspp/internal/core"
	"dspp/internal/qp"
	"dspp/internal/telemetry"
)

// coldSolve runs one Solver solve from the zero state with the given
// options, on a partition from NewPartition as the benchmark builds it.
func coldSolve(t *testing.T, scn *Scenario, opt Options) *Solution {
	t.Helper()
	part, err := NewPartition(scn.Inst, opt.MaxShardSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Shards) != 0 {
		t.Fatalf("partition has %d shards, want none", len(part.Shards))
	}
	solver, err := NewSolver(scn.Inst, len(scn.Demand), part, opt)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.SolveCtx(context.Background(), scn.Inst.NewState(), scn.Demand, scn.Prices)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// checkForward checks a Solver solution against a plan: bitwise the same
// objective and first-step state, converged, and no coordination counts.
func checkForward(t *testing.T, label string, sol *Solution, plan *core.Plan) {
	t.Helper()
	if math.Float64bits(sol.Objective) != math.Float64bits(plan.Objective) {
		t.Fatalf("%s: objective %v, want %v", label, sol.Objective, plan.Objective)
	}
	if !sameBits(sol.State, plan.X[0]) {
		t.Fatalf("%s: state differs from the cold session plan", label)
	}
	if !sol.Converged {
		t.Fatalf("%s: not converged", label)
	}
	if sol.Rounds != 0 || sol.ShardSolves != 0 || sol.SkippedShards != 0 || sol.FastResolves != 0 || sol.HeldShards != 0 {
		t.Fatalf("%s: coordination counters %+v, want all zero", label, *sol)
	}
}

// TestCostGapVsMonolithic pins the Solver to the monolithic solve: its
// objective and state are bit for bit those of a cold
// HorizonSession.SolveCtx on the same instance, so the cost gap is
// exactly zero. The benchmark's n120 / 12-DC W2 scenario (topology seed
// 42) and a tighter one on another seed are checked.
func TestCostGapVsMonolithic(t *testing.T) {
	for _, cfg := range []ScenarioConfig{
		{Locations: 120, DCSites: 12, Seed: 42, Horizon: 2},
		{Locations: 120, DCSites: 12, Seed: 31, Horizon: 2, Utilization: 0.85},
	} {
		scn, err := NewScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sol := coldSolve(t, scn, Options{MaxShardSize: 30})
		ses, err := scn.Inst.NewHorizonSession(cfg.Horizon, qp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := ses.SolveCtx(context.Background(), core.HorizonInput{
			X0: scn.Inst.NewState(), Demand: scn.Demand, Prices: scn.Prices,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkForward(t, fmt.Sprintf("seed %d", cfg.Seed), sol, plan)
	}
}

// TestIncrementalDisabledBitwise checks that no option the benchmark
// sets changes a bit of the solution: RankK, PeriodCarryTol (the
// retired incremental tiers), NoFallback, MaxShardSize and a telemetry
// hub all give the zero-option result.
func TestIncrementalDisabledBitwise(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 120, DCSites: 12, Seed: 42, Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := coldSolve(t, scn, Options{})
	for name, opt := range map[string]Options{
		"RankK":          {RankK: true},
		"PeriodCarryTol": {PeriodCarryTol: 1e-3},
		"NoFallback":     {NoFallback: true},
		"MaxShardSize":   {MaxShardSize: 30},
		"all":            {MaxShardSize: 30, Telemetry: telemetry.New(), RankK: true, PeriodCarryTol: 1e-3, NoFallback: true},
	} {
		sol := coldSolve(t, scn, opt)
		if math.Float64bits(sol.Objective) != math.Float64bits(ref.Objective) || !sameBits(sol.State, ref.State) {
			t.Fatalf("%s changed the solution: objective %v vs %v", name, sol.Objective, ref.Objective)
		}
	}
}

// TestCoordinationCancellation checks that a cancelled context fails the
// solve with its error, and that the solver still solves afterwards.
func TestCoordinationCancellation(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 120, DCSites: 12, Seed: 42, Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewSolver(scn.Inst, 2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solver.SolveCtx(ctx, scn.Inst.NewState(), scn.Demand, scn.Prices); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	sol, err := solver.SolveCtx(context.Background(), scn.Inst.NewState(), scn.Demand, scn.Prices)
	if err != nil {
		t.Fatalf("solve after cancellation: %v", err)
	}
	if want := coldSolve(t, scn, Options{}); math.Float64bits(sol.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("objective after cancellation %v, want %v", sol.Objective, want.Objective)
	}
}
