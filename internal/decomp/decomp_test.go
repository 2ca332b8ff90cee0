package decomp

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"dspp/internal/core"
	"dspp/internal/qp"
	"dspp/internal/telemetry"
)

// randomInstance builds a small instance with a random support pattern:
// every location gets 1–3 feasible DCs, all capacitated.
func randomInstance(t *testing.T, rng *rand.Rand, l, v int) *core.Instance {
	t.Helper()
	sla := make([][]float64, l)
	for li := range sla {
		sla[li] = make([]float64, v)
		for vi := range sla[li] {
			sla[li][vi] = math.Inf(1)
		}
	}
	for vi := 0; vi < v; vi++ {
		n := 1 + rng.Intn(3)
		for k := 0; k < n; k++ {
			sla[rng.Intn(l)][vi] = 0.5 + rng.Float64()
		}
	}
	rec := make([]float64, l)
	caps := make([]float64, l)
	for li := range rec {
		rec[li] = 1
		caps[li] = 50 + 50*rng.Float64()
	}
	inst, err := core.NewInstance(core.Config{SLA: sla, ReconfigWeights: rec, Capacities: caps})
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	return inst
}

// bruteComponents computes the location components of the support graph
// by repeated DFS over an explicit location×location adjacency.
func bruteComponents(inst *core.Instance) [][]int {
	v := inst.NumLocations()
	adj := make([][]bool, v)
	for i := range adj {
		adj[i] = make([]bool, v)
	}
	for a := 0; a < v; a++ {
		for b := a + 1; b < v; b++ {
			for l := 0; l < inst.NumDataCenters(); l++ {
				if inst.Feasible(l, a) && inst.Feasible(l, b) {
					adj[a][b], adj[b][a] = true, true
					break
				}
			}
		}
	}
	seen := make([]bool, v)
	var comps [][]int
	for s := 0; s < v; s++ {
		if seen[s] {
			continue
		}
		var comp, stack []int
		stack = append(stack, s)
		seen[s] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, x)
			for y := 0; y < v; y++ {
				if adj[x][y] && !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func TestPartitionMatchesBruteForceComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(t, rng, 2+rng.Intn(8), 2+rng.Intn(30))
		part, err := NewPartition(inst, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteComponents(inst)
		if len(part.Shards) != len(want) {
			t.Fatalf("trial %d: %d shards, want %d components", trial, len(part.Shards), len(want))
		}
		// Same partition of locations: compare via a location→component
		// label map from each side.
		label := make(map[int]int)
		for ci, comp := range want {
			for _, v := range comp {
				label[v] = ci
			}
		}
		for si, sh := range part.Shards {
			if len(sh.Locations) == 0 {
				t.Fatalf("trial %d: empty shard %d", trial, si)
			}
			c0 := label[sh.Locations[0]]
			for _, v := range sh.Locations {
				if label[v] != c0 {
					t.Fatalf("trial %d: shard %d mixes components", trial, si)
				}
			}
			if len(sh.Locations) != len(want[c0]) {
				t.Fatalf("trial %d: shard %d has %d locations, component %d has %d",
					trial, si, len(sh.Locations), c0, len(want[c0]))
			}
		}
	}
}

func TestPartitionMaxShardSize(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 200, DCSites: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(scn.Inst, 25)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 200)
	for _, sh := range part.Shards {
		if len(sh.Locations) > 25 {
			t.Fatalf("shard has %d locations > 25", len(sh.Locations))
		}
		for _, v := range sh.Locations {
			if seen[v] {
				t.Fatalf("location %d in two shards", v)
			}
			seen[v] = true
		}
		// Every feasible DC of every member must be inside the shard.
		dcSet := make(map[int]bool, len(sh.DCs))
		for _, dc := range sh.DCs {
			dcSet[dc] = true
		}
		for _, v := range sh.Locations {
			for _, dc := range scn.Inst.FeasibleDCs(v, nil) {
				if !dcSet[dc] {
					t.Fatalf("location %d's DC %d missing from its shard", v, dc)
				}
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("location %d unassigned", v)
		}
	}
	if len(part.Shards) < 8 {
		t.Fatalf("got %d shards, expected ≥ 8 at cap 25", len(part.Shards))
	}
}

// mpcSeq drives solver through periods sequential MPC steps over a fixed
// forecast and returns every solution.
func mpcSeq(t *testing.T, solver *Solver, inst *core.Instance, demand, prices [][]float64, periods int) []*Solution {
	t.Helper()
	x0 := inst.NewState()
	out := make([]*Solution, 0, periods)
	for k := 0; k < periods; k++ {
		sol, err := solver.SolveCtx(context.Background(), x0, demand, prices)
		if err != nil {
			t.Fatalf("period %d: %v", k, err)
		}
		x0 = sol.State
		out = append(out, sol)
	}
	return out
}

func TestSolverDeterministicAcrossWorkers(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 160, DCSites: 16, Seed: 21, Utilization: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(workers int) *Solution {
		part, err := NewPartition(scn.Inst, 40)
		if err != nil {
			t.Fatal(err)
		}
		solver, err := NewSolver(scn.Inst, 2, part, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solver.SolveCtx(context.Background(), scn.Inst.NewState(), scn.Demand, scn.Prices)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	a, b := solve(1), solve(8)
	if a.Objective != b.Objective || a.Rounds != b.Rounds || a.Converged != b.Converged {
		t.Fatalf("worker count changed the result: obj %v vs %v, rounds %d vs %d",
			a.Objective, b.Objective, a.Rounds, b.Rounds)
	}
	for l := range a.State {
		for v := range a.State[l] {
			if a.State[l][v] != b.State[l][v] {
				t.Fatalf("state[%d][%d] differs: %v vs %v", l, v, a.State[l][v], b.State[l][v])
			}
		}
	}
}

// TestIncrementalDisabledBitwise pins the coordinated loop over a short MPC
// sequence now that it has no incremental tiers: every round re-solves
// every shard, no shard-round is skipped, held or fast-resolved, and the
// results are bitwise identical at any worker count, in every period.
func TestIncrementalDisabledBitwise(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 160, DCSites: 16, Seed: 21, Utilization: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(scn.Inst, 40)
	if err != nil {
		t.Fatal(err)
	}
	shards := len(part.Shards)
	run := func(workers int) []*Solution {
		solver, err := NewSolver(scn.Inst, 2, part, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return mpcSeq(t, solver, scn.Inst, scn.Demand, scn.Prices, 3)
	}
	a, b := run(1), run(8)
	for k := range a {
		if a[k].Objective != b[k].Objective || a[k].Rounds != b[k].Rounds || a[k].Converged != b[k].Converged {
			t.Fatalf("period %d: worker count changed the result: obj %v vs %v, rounds %d vs %d",
				k, a[k].Objective, b[k].Objective, a[k].Rounds, b[k].Rounds)
		}
		for _, sol := range []*Solution{a[k], b[k]} {
			if sol.ShardSolves != sol.Rounds*shards {
				t.Fatalf("period %d: %d shard solves in %d rounds of %d shards", k, sol.ShardSolves, sol.Rounds, shards)
			}
			if sol.SkippedShards != 0 || sol.HeldShards != 0 || sol.FastResolves != 0 {
				t.Fatalf("period %d: skipped %d shard-rounds, held %d shards, fast-resolved %d",
					k, sol.SkippedShards, sol.HeldShards, sol.FastResolves)
			}
		}
		for l := range a[k].State {
			for v := range a[k].State[l] {
				if a[k].State[l][v] != b[k].State[l][v] {
					t.Fatalf("period %d: state[%d][%d] differs: %v vs %v", k, l, v, a[k].State[l][v], b[k].State[l][v])
				}
				if a[k].Applied[l][v] != b[k].Applied[l][v] {
					t.Fatalf("period %d: applied[%d][%d] differs across worker counts", k, l, v)
				}
			}
		}
	}
}

func TestCostGapVsMonolithic(t *testing.T) {
	for _, util := range []float64{0.5, 0.85} {
		scn, err := NewScenario(ScenarioConfig{Locations: 120, DCSites: 12, Seed: 31, Utilization: util})
		if err != nil {
			t.Fatal(err)
		}
		inst := scn.Inst
		part, err := NewPartition(inst, 30)
		if err != nil {
			t.Fatal(err)
		}
		if len(part.Shards) < 2 {
			t.Fatalf("util %g: want a real decomposition, got %d shards", util, len(part.Shards))
		}
		solver, err := NewSolver(inst, 2, part, Options{})
		if err != nil {
			t.Fatal(err)
		}
		x0 := inst.NewState()
		sol, err := solver.SolveCtx(context.Background(), x0, scn.Demand, scn.Prices)
		if err != nil {
			t.Fatal(err)
		}
		ses, err := inst.NewHorizonSession(len(scn.Demand), qp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mono, err := ses.Solve(core.HorizonInput{X0: x0, Demand: scn.Demand, Prices: scn.Prices})
		if err != nil {
			t.Fatal(err)
		}
		gap := (sol.Objective - mono.Objective) / math.Abs(mono.Objective)
		if gap > 0.01 {
			t.Fatalf("util %g: cost gap %.4f > 1%% (decomp %.6g vs mono %.6g, %d rounds, converged=%t)",
				util, gap, sol.Objective, mono.Objective, sol.Rounds, sol.Converged)
		}
		if gap < -1e-6 {
			t.Fatalf("util %g: decomposed objective %.6g below the monolithic optimum %.6g — infeasible split",
				util, sol.Objective, mono.Objective)
		}
		// The assembled state must satisfy the true capacities and demand.
		slack, err := inst.DemandSlack(sol.State, scn.Demand[0])
		if err != nil {
			t.Fatal(err)
		}
		for v, sl := range slack {
			if sl < -1e-6 {
				t.Fatalf("util %g: location %d demand violated by %g", util, v, -sl)
			}
		}
		byDC := sol.State.TotalByDC()
		for l, tot := range byDC {
			c, _ := inst.Capacity(l)
			if tot > c*(1+1e-9) {
				t.Fatalf("util %g: DC %d over capacity: %g > %g", util, l, tot, c)
			}
		}
	}
}

func TestCoordinationCancellation(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 240, DCSites: 24, Seed: 51, Utilization: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(scn.Inst, 30)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewSolver(scn.Inst, 2, part, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err = solver.SolveCtx(ctx, scn.Inst.NewState(), scn.Demand, scn.Prices)
	if err == nil {
		// The solve may legitimately win the race; re-run with an
		// already-cancelled context, which must always fail.
		ctx2, cancel2 := context.WithCancel(context.Background())
		cancel2()
		_, err = solver.SolveCtx(ctx2, scn.Inst.NewState(), scn.Demand, scn.Prices)
	}
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	// The solver must remain usable after a cancelled solve.
	sol, err := solver.SolveCtx(context.Background(), scn.Inst.NewState(), scn.Demand, scn.Prices)
	if err != nil {
		t.Fatalf("solve after cancellation: %v", err)
	}
	if sol.Rounds < 1 {
		t.Fatal("no rounds recorded")
	}
}

func TestRunScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke is seconds-long")
	}
	recs, err := RunScaling(context.Background(), []ScalingCase{
		{Name: "smoke", Locations: 80, DCSites: 8, MaxShardSize: 20, Monolithic: true, Seed: 91},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	r := recs[0]
	if r.CostGap < -1e-4 || r.CostGap > 0.01 {
		t.Fatalf("cost gap %.6f outside [-1e-4, 1%%]", r.CostGap)
	}
	if r.Shards < 2 || r.DecompSolveSec <= 0 || r.MonoSolveSec <= 0 {
		t.Fatalf("implausible record: %+v", r)
	}
}

func TestPartitionWeightedBalancesLoad(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 200, DCSites: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Skewed weights: the BFS sweep's first pops are the heavy hitters,
	// so the count-only cut piles them into one shard.
	v := scn.Inst.NumLocations()
	weights := make([]float64, v)
	for i := range weights {
		weights[i] = 1
		if i%5 == 0 {
			weights[i] = 50
		}
	}
	maxW := func(p *Partition) float64 {
		var m float64
		for _, sh := range p.Shards {
			var w float64
			for _, vi := range sh.Locations {
				w += weights[vi]
			}
			if w > m {
				m = w
			}
		}
		return m
	}
	plain, err := NewPartition(scn.Inst, 25)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := NewPartitionWeighted(scn.Inst, 25, weights)
	if err != nil {
		t.Fatal(err)
	}
	// Same structural invariants as the unweighted splitter.
	seen := make([]bool, v)
	for _, sh := range weighted.Shards {
		if len(sh.Locations) > 25 {
			t.Fatalf("weighted shard has %d locations > 25", len(sh.Locations))
		}
		dcSet := make(map[int]bool, len(sh.DCs))
		for _, dc := range sh.DCs {
			dcSet[dc] = true
		}
		for _, vi := range sh.Locations {
			if seen[vi] {
				t.Fatalf("location %d in two shards", vi)
			}
			seen[vi] = true
			for _, dc := range scn.Inst.FeasibleDCs(vi, nil) {
				if !dcSet[dc] {
					t.Fatalf("location %d's DC %d missing from its shard", vi, dc)
				}
			}
		}
	}
	for vi, ok := range seen {
		if !ok {
			t.Fatalf("location %d unassigned", vi)
		}
	}
	if mw, mp := maxW(weighted), maxW(plain); mw > mp {
		t.Fatalf("weighted split worse than count-only: max shard weight %g > %g", mw, mp)
	}
	// The weighted shards must still feed a working solver.
	solver, err := NewSolver(scn.Inst, 2, weighted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.SolveCtx(context.Background(), scn.Inst.NewState(), scn.Demand, scn.Prices); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionWeightedNilAndErrors(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 80, DCSites: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewPartition(scn.Inst, 20)
	if err != nil {
		t.Fatal(err)
	}
	nilW, err := NewPartitionWeighted(scn.Inst, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nilW.Shards) != len(plain.Shards) {
		t.Fatalf("nil weights changed the partition: %d vs %d shards", len(nilW.Shards), len(plain.Shards))
	}
	for i := range plain.Shards {
		if len(nilW.Shards[i].Locations) != len(plain.Shards[i].Locations) {
			t.Fatalf("shard %d differs under nil weights", i)
		}
		for j, v := range plain.Shards[i].Locations {
			if nilW.Shards[i].Locations[j] != v {
				t.Fatalf("shard %d location %d differs under nil weights", i, j)
			}
		}
	}
	v := scn.Inst.NumLocations()
	if _, err := NewPartitionWeighted(scn.Inst, 20, make([]float64, v-1)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short weights: err = %v", err)
	}
	bad := make([]float64, v)
	bad[3] = math.NaN()
	if _, err := NewPartitionWeighted(scn.Inst, 20, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NaN weight: err = %v", err)
	}
	bad[3] = -1
	if _, err := NewPartitionWeighted(scn.Inst, 20, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative weight: err = %v", err)
	}
}

// roundCutter is a trace writer that cancels its context once a shard
// solve of coordination round `at` ends. Used under a far deadline, it
// stops the loop after a fixed round however fast the machine runs them:
// a wall-clock deadline cannot, because the loop reaches a bitwise quota
// fixed point — and then converges even at Tol 1e-300 — after ~180
// rounds, while in its first ~25 rounds a continued shard solve may
// still overrun its quota by its primal tolerance (~1e-7 relative),
// which the feasibility checks below would reject.
type roundCutter struct {
	at     int
	cancel context.CancelFunc
}

func (w *roundCutter) Write(p []byte) (int, error) {
	var ev struct {
		Span  string             `json:"span"`
		Attrs map[string]float64 `json:"attrs"`
	}
	if json.Unmarshal(p, &ev) == nil && ev.Span == telemetry.SpanShardSolve && ev.Attrs["round"] >= float64(w.at) {
		w.cancel()
	}
	return len(p), nil
}

// cutAtRound returns a context whose far deadline marks the solve as
// deadline-bounded, cancelled during coordination round 60, and the
// telemetry hub that carries the cut.
func cutAtRound(t *testing.T) (context.Context, *telemetry.Hub) {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	t.Cleanup(cancel)
	return ctx, telemetry.New(telemetry.WithTraceWriter(&roundCutter{at: 60, cancel: cancel}))
}

func TestCoordinationDeadlineReturnsFeasibleIterate(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 240, DCSites: 24, Seed: 51, Utilization: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(scn.Inst, 30)
	if err != nil {
		t.Fatal(err)
	}
	// A tolerance the loop can never meet keeps rounds coming until the
	// deadline check has to stop them.
	ctx, hub := cutAtRound(t)
	solver, err := NewSolver(scn.Inst, 2, part, Options{
		Workers: 4, MaxRounds: 100000, Tol: 1e-300, Telemetry: hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.SolveCtx(ctx, scn.Inst.NewState(), scn.Demand, scn.Prices)
	if err != nil {
		t.Fatalf("deadline-bounded solve errored instead of returning its iterate: %v", err)
	}
	if !sol.DeadlineHit || sol.Converged {
		t.Fatalf("DeadlineHit=%t Converged=%t after %d rounds, want deadline stop",
			sol.DeadlineHit, sol.Converged, sol.Rounds)
	}
	if sol.Rounds < 1 {
		t.Fatal("no complete round before the deadline")
	}
	// The returned iterate must be capacity-feasible for the full
	// instance whether or not the final round completed.
	byDC := sol.State.TotalByDC()
	for l, tot := range byDC {
		c, _ := scn.Inst.Capacity(l)
		if tot > c*(1+1e-9) {
			t.Fatalf("DC %d over capacity: %g > %g", l, tot, c)
		}
	}
	// Demand feasibility is the stronger between-rounds contract: it
	// holds when every shard's final-round solve converged (Partial
	// unset). A deadline that fires inside a round leaves projected
	// anytime iterates, which only promise capacity feasibility.
	if !sol.Partial {
		slack, err := scn.Inst.DemandSlack(sol.State, scn.Demand[0])
		if err != nil {
			t.Fatal(err)
		}
		for v, sl := range slack {
			if sl < -1e-6 {
				t.Fatalf("location %d demand violated by %g", v, -sl)
			}
		}
	}
}
