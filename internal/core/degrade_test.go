package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"dspp/internal/qp"
)

// overloadForecasts returns demand far above a 10-server DC's ceiling so
// the hard horizon QP is infeasible.
func overloadForecasts(w int) (demand, prices [][]float64) {
	return constForecast(w, []float64{5000}), constForecast(w, []float64{0.1})
}

func TestSolveHorizonSoftFeasibleMatchesHard(t *testing.T) {
	inst := singleDC(t, 1e-3, 100)
	input := HorizonInput{
		X0:     inst.NewState(),
		Demand: constForecast(3, []float64{1000}),
		Prices: constForecast(3, []float64{0.1}),
	}
	hard, err := solveOnce(inst, input, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	soft, err := solveOnce(inst, input, qp.DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	if shed := soft.TotalShed(); shed > 1e-6 {
		t.Errorf("feasible problem shed %g", shed)
	}
	if math.Abs(soft.Objective-hard.Objective) > 1e-3*(1+math.Abs(hard.Objective)) {
		t.Errorf("soft objective %g vs hard %g", soft.Objective, hard.Objective)
	}
	for tt := range soft.X {
		if d := math.Abs(soft.X[tt][0][0] - hard.X[tt][0][0]); d > 1e-3*(1+hard.X[tt][0][0]) {
			t.Errorf("step %d: soft state %g vs hard %g", tt, soft.X[tt][0][0], hard.X[tt][0][0])
		}
	}
	if soft.Warm != nil {
		t.Error("soft plan must not carry a hard-layout warm capsule")
	}
}

func TestSolveHorizonSoftShedsWhenOverloaded(t *testing.T) {
	inst := singleDC(t, 1e-3, 10) // a = 0.01 → ceiling 1000 req/s
	demand, prices := overloadForecasts(3)
	input := HorizonInput{X0: inst.NewState(), Demand: demand, Prices: prices}
	if _, err := solveOnce(inst, input, qp.DefaultOptions(), false); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("hard solve err = %v, want ErrInfeasible", err)
	}
	soft, err := solveOnce(inst, input, qp.DefaultOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity stays hard; the 4000 req/s beyond the ceiling is shed.
	for tt := range soft.X {
		if x := soft.X[tt][0][0]; x > 10+1e-6 {
			t.Errorf("step %d: %g servers beyond capacity", tt, x)
		}
		if s := soft.Shed[tt][0]; math.Abs(s-4000) > 40 {
			t.Errorf("step %d: shed %g, want ≈4000", tt, s)
		}
	}
	if total := soft.TotalShed(); math.Abs(total-12000) > 120 {
		t.Errorf("TotalShed = %g, want ≈12000", total)
	}
}

func TestStepSoftDegradation(t *testing.T) {
	inst := singleDC(t, 1e-3, 10)
	c, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	demand, prices := overloadForecasts(3)
	res, err := c.Step(demand, prices)
	if err != nil {
		t.Fatalf("degrading controller errored: %v", err)
	}
	deg := res.Degradation
	if deg.Mode != DegradeSoft || !deg.Degraded() {
		t.Fatalf("mode = %v, want soft", deg.Mode)
	}
	if deg.ShedDemand < 3500 || deg.HorizonShed < 3*3500 {
		t.Errorf("shed = %g (horizon %g), want ≈4000/12000", deg.ShedDemand, deg.HorizonShed)
	}
	if deg.Cause == "" {
		t.Error("degradation cause not recorded")
	}
	if res.NewState[0][0] > 10+1e-6 {
		t.Errorf("degraded state %g beyond capacity", res.NewState[0][0])
	}
	// A later feasible step must return to the clean path.
	res2, err := c.Step(constForecast(3, []float64{500}), constForecast(3, []float64{0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Degradation.Degraded() {
		t.Errorf("feasible follow-up step degraded: %v", res2.Degradation)
	}
}

func TestStepHoldRungWhenSoftFails(t *testing.T) {
	// A one-iteration cap at an unreachable tolerance makes both the hard
	// and the soft solve fail, with no budget in play, pushing the ladder
	// to its last rung: hold the allocation, projected onto the surviving
	// capacity.
	inst := singleDC(t, 1e-3, 10)
	init := inst.NewState()
	init[0][0] = 8
	c, err := NewController(inst, 3, WithInitialState(init))
	if err != nil {
		t.Fatal(err)
	}
	c.opts.MaxIterations = 1
	c.opts.Tolerance = 1e-30
	demand, prices := overloadForecasts(3)
	res, err := c.Step(demand, prices)
	if err != nil {
		t.Fatalf("hold rung errored: %v", err)
	}
	if res.Degradation.Mode != DegradeHold {
		t.Fatalf("mode = %v, want hold", res.Degradation.Mode)
	}
	if res.NewState[0][0] != 8 {
		t.Errorf("hold moved the state to %g", res.NewState[0][0])
	}
}

// TestStepReportsLooseSolve: a hard solve that runs to the iteration cap
// and is accepted at the loosened tolerance yields a plan marked Loose,
// and the step reports it — not as a degradation rung, and not as clean.
func TestStepReportsLooseSolve(t *testing.T) {
	demand, prices := constForecast(3, []float64{1000}), constForecast(3, []float64{0.1})
	clean, err := NewController(singleDC(t, 1e-3, 100), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := clean.Step(demand, prices)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Loose || res.Degradation.Loose || res.Degradation.String() != "ok" {
		t.Fatalf("default solve reported loose=%v/%v %q", res.Plan.Loose, res.Degradation.Loose, res.Degradation)
	}
	for limit := 1; limit <= 100; limit++ {
		c, err := NewController(singleDC(t, 1e-3, 100), 3)
		if err != nil {
			t.Fatal(err)
		}
		c.opts.MaxIterations = limit
		c.opts.Tolerance = 1e-12
		res, err := c.Step(demand, prices)
		if err != nil || res.Degradation.Mode != DegradeNone || res.Plan.QPIterations < limit {
			continue // failed at the cap, or converged before it
		}
		if !res.Plan.Loose || !res.Degradation.Loose {
			t.Fatalf("cap %d: capped solve accepted without the loose flag", limit)
		}
		if res.Degradation.Degraded() || res.Degradation.String() != "loose" {
			t.Fatalf("cap %d: loose step reported as %q (degraded %v)", limit, res.Degradation, res.Degradation.Degraded())
		}
		return
	}
	t.Fatal("no iteration cap produced a loosely accepted hard solve")
}

func TestHoldProjection(t *testing.T) {
	inst := twoByTwo(t) // capacities 100, 100
	s := inst.NewState()
	s[0][0], s[0][1] = 150, 50 // DC 0 at 200: over by 100
	s[1][0] = 30
	next := s.Clone()
	trimmed := inst.fitCapacity(next)
	if math.Abs(trimmed-100) > 1e-9 {
		t.Errorf("trimmed = %g, want 100", trimmed)
	}
	if math.Abs(next[0][0]-75) > 1e-9 || math.Abs(next[0][1]-25) > 1e-9 {
		t.Errorf("DC 0 projected to %v, want proportional 75/25", next[0])
	}
	if next[1][0] != 30 {
		t.Errorf("within-capacity DC rescaled: %v", next[1])
	}
}

func TestStepBadInputBypassesLadder(t *testing.T) {
	inst := singleDC(t, 1e-3, 10)
	c, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Forecast shorter than the horizon: a caller bug, never degraded
	// around.
	if _, err := c.Step(constForecast(2, []float64{1}), constForecast(2, []float64{1})); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short forecast err = %v, want ErrBadInput", err)
	}
}

func TestStepCtxCancelledPropagates(t *testing.T) {
	inst := singleDC(t, 1e-3, 10)
	c, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	demand, prices := overloadForecasts(3)
	if _, err := c.StepCtx(ctx, demand, prices); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled step err = %v, want context.Canceled", err)
	}
}

// TestRestoredNaNCapsuleStepsCold restores a NaN warm capsule — the shape
// a corrupt checkpoint could hand back — into a controller: the solver
// refuses it before the first iteration, so the step is clean and its
// plan is bitwise the plan of a controller that starts cold.
func TestRestoredNaNCapsuleStepsCold(t *testing.T) {
	inst := singleDC(t, 1e-3, 100)
	demand, prices := constForecast(3, []float64{1000}), constForecast(3, []float64{0.1})
	src, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Step(demand, prices); err != nil {
		t.Fatal(err)
	}
	ws := src.WarmCapsule().Export()
	for i := range ws.Y {
		ws.Y[i] = math.NaN()
	}
	poisoned, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	poisoned.RestoreWarm(ImportWarm(ws))
	got, err := poisoned.Step(demand, prices)
	if err != nil {
		t.Fatalf("NaN capsule: %v", err)
	}
	if got.Degradation.Degraded() || got.Degradation.Loose {
		t.Fatalf("NaN capsule step degraded: %v", got.Degradation)
	}
	cold, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Step(demand, prices)
	if err != nil {
		t.Fatal(err)
	}
	plansBitIdentical(t, 0, got.Plan, want.Plan)
}
