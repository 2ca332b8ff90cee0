package decomp

import (
	"context"
	"math"
	"testing"

	"dspp/internal/core"
)

// mpcSeq drives solver through periods sequential MPC steps over a fixed
// forecast (the quiet-steady-state workload) and returns every solution.
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

func newIncrementalScenario(t *testing.T) *Scenario {
	t.Helper()
	scn, err := NewScenario(ScenarioConfig{Locations: 160, DCSites: 16, Seed: 21, Utilization: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestIncrementalDisabledBitwise pins the escape hatch: with
// NoIncremental the refactored loop re-solves every shard every round, so
// results are bitwise identical at any worker count (the PR 6
// determinism contract) and no shard-round is ever skipped.
func TestIncrementalDisabledBitwise(t *testing.T) {
	scn := newIncrementalScenario(t)
	run := func(workers int) []*Solution {
		part, err := NewPartition(scn.Inst, 40)
		if err != nil {
			t.Fatal(err)
		}
		solver, err := NewSolver(scn.Inst, 2, part, Options{
			Workers: workers, NoFallback: true, NoIncremental: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return mpcSeq(t, solver, scn.Inst, scn.Demand, scn.Prices, 3)
	}
	a, b := run(1), run(8)
	for k := range a {
		if a[k].Objective != b[k].Objective || a[k].Rounds != b[k].Rounds {
			t.Fatalf("period %d: worker count changed the result: obj %v vs %v, rounds %d vs %d",
				k, a[k].Objective, b[k].Objective, a[k].Rounds, b[k].Rounds)
		}
		if a[k].SkippedShards != 0 || a[k].HeldShards != 0 {
			t.Fatalf("period %d: NoIncremental skipped %d shard-rounds, held %d shards",
				k, a[k].SkippedShards, a[k].HeldShards)
		}
		if f := a[k].DirtyFraction(); f != 1 {
			t.Fatalf("period %d: NoIncremental dirty fraction %g, want 1", k, f)
		}
		for l := range a[k].State {
			for v := range a[k].State[l] {
				if a[k].State[l][v] != b[k].State[l][v] {
					t.Fatalf("period %d: state[%d][%d] differs across worker counts", k, l, v)
				}
				if a[k].Applied[l][v] != b[k].Applied[l][v] {
					t.Fatalf("period %d: applied[%d][%d] differs across worker counts", k, l, v)
				}
			}
		}
	}
}

// TestIncrementalMatchesFullLoop compares default (incremental) against
// NoIncremental on the same MPC sequence: both must converge, agree
// within the coordination tolerance, and the incremental run must
// actually skip shard-rounds while staying feasible. The tight
// coordination tolerance drives the loop deep into the damped quota
// tail, where sub-DirtyTol movements let clean shards sit out rounds —
// and across periods the persistent damping lets the incremental loop
// re-converge in a couple of rounds where the full loop needs dozens.
func TestIncrementalMatchesFullLoop(t *testing.T) {
	scn := newIncrementalScenario(t)
	run := func(opt Options) []*Solution {
		part, err := NewPartition(scn.Inst, 40)
		if err != nil {
			t.Fatal(err)
		}
		opt.NoFallback = true
		// Tight enough that every period takes several rounds: at 1e-5
		// the quota loop settles in two, before any shard can go clean.
		opt.Tol = 1e-6
		opt.MaxRounds = 60
		solver, err := NewSolver(scn.Inst, 2, part, opt)
		if err != nil {
			t.Fatal(err)
		}
		return mpcSeq(t, solver, scn.Inst, scn.Demand, scn.Prices, 3)
	}
	inc, full := run(Options{}), run(Options{NoIncremental: true})
	if s, f := sumSolves(inc), sumSolves(full); s >= f {
		t.Fatalf("incremental run used %d shard solves, full loop %d — no saving", s, f)
	}
	skipped := 0
	for k := range inc {
		if !inc[k].Converged || !full[k].Converged {
			t.Fatalf("period %d: converged inc=%t full=%t", k, inc[k].Converged, full[k].Converged)
		}
		gap := math.Abs(inc[k].Objective-full[k].Objective) / math.Abs(full[k].Objective)
		if gap > 5e-3 {
			t.Fatalf("period %d: incremental objective drifts %.2e from the full loop", k, gap)
		}
		skipped += inc[k].SkippedShards
		if inc[k].ShardSolves+inc[k].SkippedShards != inc[k].Rounds*len(incShards(t, scn)) {
			t.Fatalf("period %d: solve accounting inconsistent: %d+%d vs %d rounds",
				k, inc[k].ShardSolves, inc[k].SkippedShards, inc[k].Rounds)
		}
	}
	if skipped == 0 {
		t.Fatal("incremental scheduling never skipped a shard-round on a multi-round scenario")
	}
	// The final incremental state must satisfy the true demand/capacity.
	last := inc[len(inc)-1]
	slack, err := scn.Inst.DemandSlack(last.State, scn.Demand[0])
	if err != nil {
		t.Fatal(err)
	}
	for v, sl := range slack {
		if sl < -1e-6 {
			t.Fatalf("location %d demand violated by %g", v, -sl)
		}
	}
	for l, tot := range last.State.TotalByDC() {
		c, _ := scn.Inst.Capacity(l)
		if tot > c*(1+1e-9) {
			t.Fatalf("DC %d over capacity: %g > %g", l, tot, c)
		}
	}
}

func sumSolves(sols []*Solution) int {
	n := 0
	for _, s := range sols {
		n += s.ShardSolves
	}
	return n
}

func incShards(t *testing.T, scn *Scenario) []Shard {
	t.Helper()
	part, err := NewPartition(scn.Inst, 40)
	if err != nil {
		t.Fatal(err)
	}
	return part.Shards
}

// TestRankKFastPathGap exercises the opt-in capacity fast path inside
// the coordination loop: with RankK on, dirty-shard re-solves after
// round 0 ride the rank-k continuation and must land within the
// coordination tolerance of the plain incremental run. (The per-resolve
// ≤1e-6 accuracy claim is pinned at the session level by
// core.TestResolveCapacitiesMatchesFullSolve, without the quota loop's
// chaotic amplification of per-solve dual noise in between.)
func TestRankKFastPathGap(t *testing.T) {
	scn := newIncrementalScenario(t)
	run := func(opt Options) []*Solution {
		part, err := NewPartition(scn.Inst, 40)
		if err != nil {
			t.Fatal(err)
		}
		opt.NoFallback = true
		solver, err := NewSolver(scn.Inst, 2, part, opt)
		if err != nil {
			t.Fatal(err)
		}
		return mpcSeq(t, solver, scn.Inst, scn.Demand, scn.Prices, 3)
	}
	fast, plain := run(Options{RankK: true}), run(Options{})
	fastResolves := 0
	for k := range fast {
		if !fast[k].Converged {
			t.Fatalf("period %d: rank-k run did not converge", k)
		}
		gap := math.Abs(fast[k].Objective-plain[k].Objective) / math.Abs(plain[k].Objective)
		if gap > 5e-3 {
			t.Fatalf("period %d: rank-k objective gap %.2e beyond the coordination tolerance", k, gap)
		}
		fastResolves += fast[k].FastResolves
	}
	if fastResolves == 0 {
		t.Fatal("rank-k fast path never fired on a multi-round scenario")
	}
	if plain[0].FastResolves != 0 {
		t.Fatalf("fast path fired %d times without RankK", plain[0].FastResolves)
	}
}

// TestPeriodCarryQuiescent pins cross-period delta reuse: under a
// constant forecast the MPC trajectory settles, and once the per-period
// input drift is inside PeriodCarryTol whole periods complete with zero
// QP solves — every shard holds its allocation.
func TestPeriodCarryQuiescent(t *testing.T) {
	scn := newIncrementalScenario(t)
	part, err := NewPartition(scn.Inst, 40)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewSolver(scn.Inst, 2, part, Options{
		NoFallback: true, PeriodCarryTol: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sols := mpcSeq(t, solver, scn.Inst, scn.Demand, scn.Prices, 60)
	carried := 0
	for _, sol := range sols {
		if sol.HeldShards == len(part.Shards) {
			carried++
			if sol.Rounds != 0 || !sol.Converged {
				t.Fatalf("fully carried period reports rounds=%d converged=%t", sol.Rounds, sol.Converged)
			}
			for l := range sol.Applied {
				for v := range sol.Applied[l] {
					if sol.Applied[l][v] != 0 {
						t.Fatalf("carried period applied a nonzero control at [%d][%d]", l, v)
					}
				}
			}
		}
	}
	if carried == 0 {
		t.Fatal("no period was fully carried in 60 quiet steps")
	}
	// The held state must still satisfy demand and capacity.
	last := sols[len(sols)-1]
	slack, err := scn.Inst.DemandSlack(last.State, scn.Demand[0])
	if err != nil {
		t.Fatal(err)
	}
	for v, sl := range slack {
		if sl < -1e-6 {
			t.Fatalf("location %d demand violated by %g after carry", v, -sl)
		}
	}
}

// clusteredInstance builds regions that share no data center: each of
// the clusters has dcsPer DCs of its own and locPer locations, every
// location feasible on two of its cluster's DCs. The monolithic solve
// then carries every DC's capacity rows in one Schur complement, while
// each shard carries only its own — the shape where coordination wins.
func clusteredInstance(t *testing.T, clusters, dcsPer, locPer int) (*core.Instance, [][]float64, [][]float64) {
	t.Helper()
	l, v := clusters*dcsPer, clusters*locPer
	sla := make([][]float64, l)
	for i := range sla {
		sla[i] = make([]float64, v)
		for j := range sla[i] {
			sla[i][j] = math.Inf(1)
		}
	}
	for c := 0; c < clusters; c++ {
		for k := 0; k < locPer; k++ {
			loc := c*locPer + k
			for d := 0; d < 2; d++ {
				sla[c*dcsPer+(k+d)%dcsPer][loc] = 0.01 + 0.001*float64(d)
			}
		}
	}
	weights, caps := make([]float64, l), make([]float64, l)
	for i := range weights {
		weights[i], caps[i] = 1e-4, 1e4
	}
	inst, err := core.NewInstance(core.Config{SLA: sla, ReconfigWeights: weights, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	demand, prices := make([][]float64, 2), make([][]float64, 2)
	for k := range demand {
		demand[k], prices[k] = make([]float64, v), make([]float64, l)
		for j := range demand[k] {
			demand[k][j] = 100
		}
		for j := range prices[k] {
			prices[k][j] = 0.05 + 0.001*float64(j%dcsPer)
		}
	}
	return inst, demand, prices
}

// TestDecideBypassHeuristic pins the cost model on its calibration:
// with the block-angular horizon solve a shard costs about its share of
// the monolithic solve, so coordination rounds only add work on the
// continental scenarios — both splits of the n120 scenario must bypass
// (the four-shard split measured 0.48× the monolithic speed). Regions
// that share no DC decompose: each shard factors only its own capacity
// rows, against the monolithic solve's one Schur complement over all of
// them.
func TestDecideBypassHeuristic(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 120, DCSites: 12, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	clustered, cDemand, cPrices := clusteredInstance(t, 10, 4, 40)
	for _, tc := range []struct {
		inst           *core.Instance
		demand, prices [][]float64
		shardSize      int
		bypass         bool
	}{
		{scn.Inst, scn.Demand, scn.Prices, 60, true}, // 2 shards, densely shared
		{scn.Inst, scn.Demand, scn.Prices, 30, true}, // 4 shards: the rounds outweigh the split
		{clustered, cDemand, cPrices, 40, false},     // 10 independent regions
	} {
		part, err := NewPartition(tc.inst, tc.shardSize)
		if err != nil {
			t.Fatal(err)
		}
		dec := DecideBypass(tc.inst, part, Options{})
		if dec.Bypass != tc.bypass {
			t.Fatalf("shard size %d (%d shards): bypass=%t ratio=%.3f rounds=%d, want bypass=%t",
				tc.shardSize, len(part.Shards), dec.Bypass, dec.Ratio, dec.Rounds, tc.bypass)
		}
		ctrl, err := NewController(tc.inst, 2, Options{MaxShardSize: tc.shardSize})
		if err != nil {
			t.Fatal(err)
		}
		if ctrl.Bypassed() != tc.bypass {
			t.Fatalf("shard size %d: controller bypassed=%t, want %t", tc.shardSize, ctrl.Bypassed(), tc.bypass)
		}
		if _, _, err := ctrl.Step(tc.demand, tc.prices); err != nil {
			t.Fatalf("shard size %d: step: %v", tc.shardSize, err)
		}
	}
	// A negative ratio threshold disables the model outright.
	part, err := NewPartition(scn.Inst, 60)
	if err != nil {
		t.Fatal(err)
	}
	if dec := DecideBypass(scn.Inst, part, Options{BypassRatio: -1}); dec.Bypass {
		t.Fatal("BypassRatio < 0 must never bypass")
	}
}
