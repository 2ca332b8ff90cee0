package core

import (
	"math"
	"testing"

	"dspp/internal/qp"
)

// diagonalConfig builds an L×L config where location v is served by DC v
// and DC (v+1) mod L; every other pair gets offDiag as its SLA coefficient
// (math.Inf(1) prunes the pair, a huge finite value keeps it in the QP as
// an economically useless route).
func diagonalConfig(l int, offDiag float64) Config {
	sla := make([][]float64, l)
	weights := make([]float64, l)
	caps := make([]float64, l)
	for i := 0; i < l; i++ {
		sla[i] = make([]float64, l)
		for j := 0; j < l; j++ {
			sla[i][j] = offDiag
		}
		weights[i] = 1e-4
		caps[i] = 400
	}
	for v := 0; v < l; v++ {
		sla[v][v] = 0.01
		sla[(v+1)%l][v] = 0.012
	}
	return Config{SLA: sla, ReconfigWeights: weights, Capacities: caps}
}

// TestPrunedIdenticalWithZeroPruning checks the degenerate end of the
// pruning rule: adding a data center whose every pair is SLA-infeasible
// (and which is uncapacitated, so it contributes no constraint rows) must
// leave the horizon QP bit-identical — same pair count, same objective,
// same allocations — because the pruned construction never materializes
// the phantom DC's variables.
func TestPrunedIdenticalWithZeroPruning(t *testing.T) {
	base := Config{
		SLA:             [][]float64{{0.01, 0.02}, {0.015, 0.01}},
		ReconfigWeights: []float64{1e-4, 2e-4},
		Capacities:      []float64{300, math.Inf(1)},
	}
	padded := Config{
		SLA:             [][]float64{{0.01, 0.02}, {0.015, 0.01}, {math.Inf(1), math.Inf(1)}},
		ReconfigWeights: []float64{1e-4, 2e-4, 1e-4},
		Capacities:      []float64{300, math.Inf(1), math.Inf(1)},
	}
	instA, err := NewInstance(base)
	if err != nil {
		t.Fatal(err)
	}
	instB, err := NewInstance(padded)
	if err != nil {
		t.Fatal(err)
	}
	if instA.NumPairs() != instB.NumPairs() {
		t.Fatalf("pair counts differ: %d vs %d", instA.NumPairs(), instB.NumPairs())
	}
	if st := instB.Support(); st.PrunedPairs != 2 {
		t.Fatalf("padded instance pruned %d pairs, want 2", st.PrunedPairs)
	}

	demand := constForecast(4, []float64{900, 1100})
	planA, err := solveOnce(instA, HorizonInput{
		X0: instA.NewState(), Demand: demand,
		Prices: constForecast(4, []float64{0.05, 0.08}),
	}, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := solveOnce(instB, HorizonInput{
		X0: instB.NewState(), Demand: demand,
		Prices: constForecast(4, []float64{0.05, 0.08, 0.5}),
	}, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if planA.Objective != planB.Objective {
		t.Errorf("objectives differ: %.17g vs %.17g", planA.Objective, planB.Objective)
	}
	for tt := range planA.X {
		for l := 0; l < 2; l++ {
			for v := 0; v < 2; v++ {
				if planA.X[tt][l][v] != planB.X[tt][l][v] {
					t.Errorf("X[%d][%d][%d]: %.17g vs %.17g",
						tt, l, v, planA.X[tt][l][v], planB.X[tt][l][v])
				}
			}
		}
		for v := 0; v < 2; v++ {
			if x := planB.X[tt][2][v]; x != 0 {
				t.Errorf("phantom DC holds %g servers at step %d", x, tt)
			}
		}
	}
}

// TestMostlyPrunedMatchesUnprunedSolve compares the pruned horizon QP
// against an explicitly unpruned construction of the same economics: the
// SLA-infeasible routes are materialized with an astronomically large
// coefficient (a^lv = 1e9 servers per req/s), so the unpruned QP carries
// all L·V variables but its optimum cannot afford the useless routes. The
// two solves must agree to solver precision while the pruned problem is a
// fraction of the size.
func TestMostlyPrunedMatchesUnprunedSolve(t *testing.T) {
	const l = 6
	pruned, err := NewInstance(diagonalConfig(l, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := NewInstance(diagonalConfig(l, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	if st := pruned.Support(); st.PrunedFraction < 0.5 {
		t.Fatalf("pruned fraction %.2f, want a mostly-pruned instance", st.PrunedFraction)
	}
	if pruned.NumPairs() >= unpruned.NumPairs() {
		t.Fatalf("pruned QP not smaller: %d vs %d pairs", pruned.NumPairs(), unpruned.NumPairs())
	}

	perStep := make([]float64, l)
	prices := make([]float64, l)
	for v := 0; v < l; v++ {
		perStep[v] = 600 + 40*float64(v)
		prices[v] = 0.05 + 0.01*float64(v)
	}
	mk := func(in *Instance) (*Plan, error) {
		return solveOnce(in, HorizonInput{
			X0:     in.NewState(),
			Demand: constForecast(3, perStep),
			Prices: constForecast(3, prices),
		}, qp.DefaultOptions(), false)
	}
	planP, err := mk(pruned)
	if err != nil {
		t.Fatal(err)
	}
	planU, err := mk(unpruned)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(planP.Objective - planU.Objective); d > 1e-6*(1+math.Abs(planU.Objective)) {
		t.Errorf("objectives differ by %.3g: pruned %.12g vs unpruned %.12g",
			d, planP.Objective, planU.Objective)
	}
	for tt := range planP.X {
		for li := 0; li < l; li++ {
			for v := 0; v < l; v++ {
				dp, du := planP.X[tt][li][v], planU.X[tt][li][v]
				if d := math.Abs(dp - du); d > 1e-4*(1+math.Abs(du)) {
					t.Errorf("X[%d][%d][%d]: pruned %.9g vs unpruned %.9g",
						tt, li, v, dp, du)
				}
			}
		}
	}
}

// TestSoftSolveOverPrunedSupport drives the degradation ladder's soft rung
// on a mostly-pruned instance whose surviving routes cannot carry the
// offered load: the relaxation must succeed over the pruned support, shed
// the overflow, and keep every SLA-infeasible pair at exactly zero.
func TestSoftSolveOverPrunedSupport(t *testing.T) {
	const l = 5
	inst, err := NewInstance(diagonalConfig(l, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Each DC holds 400 servers and each location sees two DCs with
	// a ≈ 0.01, so the per-location ceiling is ≈ 2·400/0.01 shared across
	// neighbours; 90000 req/s per location overwhelms it.
	perStep := make([]float64, l)
	prices := make([]float64, l)
	for v := 0; v < l; v++ {
		perStep[v] = 90000
		prices[v] = 0.05
	}
	plan, err := solveOnce(inst, HorizonInput{
		X0:     inst.NewState(),
		Demand: constForecast(3, perStep),
		Prices: constForecast(3, prices),
	}, qp.DefaultOptions(), true)
	if err != nil {
		t.Fatalf("soft solve over pruned support: %v", err)
	}
	if shed := plan.TotalShed(); shed <= 0 {
		t.Errorf("overloaded pruned instance shed %g", shed)
	}
	for tt := range plan.X {
		if err := inst.CheckState(plan.X[tt]); err != nil {
			t.Errorf("soft plan step %d violates the pruned support: %v", tt, err)
		}
	}
}

// TestLadderSoftRungOverPrunedSupport runs the controller's degradation
// ladder end to end on a mostly-pruned instance: the overloaded hard QP is
// infeasible, the ladder drops to the soft rung, and the degraded step
// still respects the pruned support.
func TestLadderSoftRungOverPrunedSupport(t *testing.T) {
	const l = 5
	inst, err := NewInstance(diagonalConfig(l, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	perStep := make([]float64, l)
	prices := make([]float64, l)
	for v := 0; v < l; v++ {
		perStep[v] = 90000
		prices[v] = 0.05
	}
	res, err := ctrl.Step(constForecast(3, perStep), constForecast(3, prices))
	if err != nil {
		t.Fatalf("ladder errored on pruned instance: %v", err)
	}
	if res.Degradation.Mode != DegradeSoft {
		t.Fatalf("mode = %v, want soft", res.Degradation.Mode)
	}
	if res.Degradation.ShedDemand <= 0 {
		t.Error("soft rung reported no shed demand under overload")
	}
	if err := inst.CheckState(res.NewState); err != nil {
		t.Errorf("degraded state violates the pruned support: %v", err)
	}
	// Recovery: a servable follow-up forecast returns to the clean path.
	for v := 0; v < l; v++ {
		perStep[v] = 1000
	}
	res2, err := ctrl.Step(constForecast(3, perStep), constForecast(3, prices))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Degradation.Degraded() {
		t.Errorf("feasible follow-up step degraded: %v", res2.Degradation)
	}
}
