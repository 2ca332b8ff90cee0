package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"dspp/internal/qp"
)

// bigInstance builds an instance large enough that a cold horizon solve
// takes well over a millisecond, so a small step budget reliably trips
// the solver's deadline mid-iteration.
func bigInstance(t *testing.T, l, v int) *Instance {
	t.Helper()
	sla := make([][]float64, l)
	for i := range sla {
		sla[i] = make([]float64, v)
		for j := range sla[i] {
			sla[i][j] = 0.005 + 0.001*float64((i+j)%7)
		}
	}
	rec := make([]float64, l)
	caps := make([]float64, l)
	for i := range rec {
		rec[i] = 1e-3
		caps[i] = 5000
	}
	inst, err := NewInstance(Config{SLA: sla, ReconfigWeights: rec, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// varyForecast fills a W×width forecast with deterministic variation so
// consecutive steps exercise real re-solves rather than fixed points.
func varyForecast(w, width int, base, amp float64) [][]float64 {
	out := make([][]float64, w)
	for t := range out {
		out[t] = make([]float64, width)
		for i := range out[t] {
			out[t][i] = base + amp*float64((t*7+i*3)%11)
		}
	}
	return out
}

func assertCapacityFeasible(t *testing.T, inst *Instance, s State, label string) {
	t.Helper()
	caps := inst.Capacities()
	for l, row := range s {
		if math.IsInf(caps[l], 1) {
			continue
		}
		var total float64
		for _, x := range row {
			total += x
		}
		if total > caps[l]+1e-6 {
			t.Errorf("%s: DC %d load %g exceeds capacity %g", label, l, total, caps[l])
		}
	}
}

// TestBudgetGenerousBitIdentical: with a budget the deadline never
// reaches, the budgeted step path (anytime bookkeeping on, solve under a
// timeout context) must be bit-identical to the unbudgeted one.
func TestBudgetGenerousBitIdentical(t *testing.T) {
	inst := twoByTwo(t)
	plain, err := NewController(inst, 4)
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := NewController(inst, 4, WithBudget(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		demand := varyForecast(4, 2, 15+3*float64(k), 4)
		prices := varyForecast(4, 2, 0.1, 0.02)
		a, err := plain.Step(demand, prices)
		if err != nil {
			t.Fatalf("step %d plain: %v", k, err)
		}
		b, err := budgeted.Step(demand, prices)
		if err != nil {
			t.Fatalf("step %d budgeted: %v", k, err)
		}
		if b.Degradation.Mode != DegradeNone {
			t.Fatalf("step %d: generous budget degraded: %v", k, b.Degradation)
		}
		for l := range a.NewState {
			for v := range a.NewState[l] {
				if a.NewState[l][v] != b.NewState[l][v] {
					t.Fatalf("step %d: state[%d][%d] %g != %g (must be bitwise equal)",
						k, l, v, a.NewState[l][v], b.NewState[l][v])
				}
				if a.Applied[l][v] != b.Applied[l][v] {
					t.Fatalf("step %d: control[%d][%d] differs", k, l, v)
				}
			}
		}
		if a.Plan.Objective != b.Plan.Objective {
			t.Fatalf("step %d: objective %g != %g", k, a.Plan.Objective, b.Plan.Objective)
		}
	}
	if budgeted.MissStreak() != 0 {
		t.Errorf("miss streak = %d after clean steps", budgeted.MissStreak())
	}
}

// TestBudgetStallExhaustedHolds: a stall longer than the whole budget
// leaves no time for any solve, so the ladder must fall straight through
// to hold — deterministically, since the sleep alone overruns the
// solving share.
func TestBudgetStallExhaustedHolds(t *testing.T) {
	inst := singleDC(t, 1e-3, 100)
	init := inst.NewState()
	init[0][0] = 8
	c, err := NewController(inst, 3, WithInitialState(init), WithBudget(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c.SetStall(80 * time.Millisecond)
	demand := constForecast(3, []float64{500})
	prices := constForecast(3, []float64{0.1})
	res, err := c.Step(demand, prices)
	if err != nil {
		t.Fatalf("exhausted-budget step errored: %v", err)
	}
	if res.Degradation.Mode != DegradeHold {
		t.Fatalf("mode = %v, want hold", res.Degradation.Mode)
	}
	if res.Degradation.Cause == "" {
		t.Error("hold cause not recorded")
	}
	if res.NewState[0][0] != 8 {
		t.Errorf("hold moved the state to %g", res.NewState[0][0])
	}
	if c.MissStreak() == 0 {
		t.Error("deadline miss not counted")
	}
	// Clearing the stall recovers: the backoff halves the solving share,
	// but a small warm solve still finishes inside it and the streak
	// resets.
	c.SetStall(0)
	res2, err := c.Step(demand, prices)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Degradation.Degraded() {
		t.Errorf("recovery step degraded: %v", res2.Degradation)
	}
	if c.MissStreak() != 0 {
		t.Errorf("miss streak = %d after clean step", c.MissStreak())
	}
}

// TestBudgetAnytimeRung drives a large cold solve into a small budget so
// the solver's deadline fires mid-iteration and the step degrades to the
// anytime rung: the best interior-point iterate so far, projected onto
// the capacity bounds. The budget ladder shrinks until the deadline
// beats the solver, so the test is robust to machine speed.
func TestBudgetAnytimeRung(t *testing.T) {
	inst := bigInstance(t, 12, 24)
	demand := varyForecast(8, 24, 300, 40)
	prices := varyForecast(8, 12, 0.1, 0.01)
	var hit *StepResult
	for _, budget := range []time.Duration{
		4 * time.Millisecond, 2 * time.Millisecond, time.Millisecond,
		500 * time.Microsecond, 250 * time.Microsecond,
	} {
		c, err := NewController(inst, 8, WithBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Step(demand, prices)
		if err != nil {
			t.Fatalf("budget %v: step errored: %v", budget, err)
		}
		if res.Degradation.Mode == DegradeAnytime {
			hit = res
			if c.MissStreak() == 0 {
				t.Error("anytime step did not count a deadline miss")
			}
			break
		}
	}
	if hit == nil {
		t.Fatal("no budget in the ladder triggered the anytime rung")
	}
	deg := hit.Degradation
	if deg.Cause == "" {
		t.Error("anytime cause not recorded")
	}
	if deg.AnytimeIterations < 0 {
		t.Errorf("anytime iterations = %d", deg.AnytimeIterations)
	}
	assertCapacityFeasible(t, inst, hit.NewState, "anytime state")
	for tt, x := range hit.Plan.X {
		assertCapacityFeasible(t, inst, x, "anytime plan step "+string(rune('0'+tt)))
	}
	// The projected plan must stay internally consistent: U[t] is the
	// difference of consecutive states.
	prev := inst.NewState()
	for tt := range hit.Plan.U {
		for l := range hit.Plan.U[tt] {
			for v := range hit.Plan.U[tt][l] {
				want := hit.Plan.X[tt][l][v] - prev[l][v]
				if math.Abs(hit.Plan.U[tt][l][v]-want) > 1e-9 {
					t.Fatalf("plan U[%d][%d][%d] = %g, want %g", tt, l, v, hit.Plan.U[tt][l][v], want)
				}
			}
		}
		prev = hit.Plan.X[tt]
	}
}

// TestProjectPlanCapacity checks the anytime projection in isolation:
// over-capacity states are scaled back proportionally, controls are
// recomputed as state differences, and the objective is re-evaluated at
// the corrected trajectory (verified against PeriodCost).
func TestProjectPlanCapacity(t *testing.T) {
	inst := twoByTwo(t) // capacities 100, 100
	w := 2
	plan := &Plan{U: make([]State, w), X: make([]State, w)}
	for tt := 0; tt < w; tt++ {
		plan.U[tt] = inst.NewState()
		plan.X[tt] = inst.NewState()
	}
	plan.X[0][0][0], plan.X[0][0][1] = 150, 50 // DC 0 at 200: over by 100
	plan.X[0][1][0] = 30
	plan.X[1][0][0], plan.X[1][0][1] = 60, 20
	plan.X[1][1][0] = 120 // DC 1 over at t=1: scaled, but not counted as trim
	x0 := inst.NewState()
	prices := constForecast(w, []float64{0.1, 0.2})

	trimmed := inst.projectPlanCapacity(plan, x0, prices)
	if math.Abs(trimmed-100) > 1e-9 {
		t.Errorf("trimmed = %g, want 100 (t=0 only)", trimmed)
	}
	if math.Abs(plan.X[0][0][0]-75) > 1e-9 || math.Abs(plan.X[0][0][1]-25) > 1e-9 {
		t.Errorf("t=0 DC 0 projected to %v, want 75/25", plan.X[0][0])
	}
	if math.Abs(plan.X[1][1][0]-100) > 1e-9 {
		t.Errorf("t=1 DC 1 projected to %g, want 100", plan.X[1][1][0])
	}
	for tt := range plan.X {
		assertCapacityFeasible(t, inst, plan.X[tt], "projected plan")
	}
	// Objective must equal the sum of per-period costs at the corrected
	// trajectory.
	var want float64
	prev := x0
	for tt := 0; tt < w; tt++ {
		cost, err := inst.PeriodCost(plan.X[tt], plan.U[tt], prices[tt])
		if err != nil {
			t.Fatal(err)
		}
		want += cost.Total()
		for l := range plan.U[tt] {
			for v := range plan.U[tt][l] {
				if math.Abs(plan.U[tt][l][v]-(plan.X[tt][l][v]-prev[l][v])) > 1e-9 {
					t.Fatalf("U[%d][%d][%d] inconsistent after projection", tt, l, v)
				}
			}
		}
		prev = plan.X[tt]
	}
	if math.Abs(plan.Objective-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("projected objective %g, want %g", plan.Objective, want)
	}
}

// TestSessionAnytimeContract: a deadline-truncated session solve hands
// back both a plan and the wrapped ErrDeadline, and the plan carries the
// iterate-quality metadata.
func TestSessionAnytimeContract(t *testing.T) {
	inst := bigInstance(t, 12, 24)
	ses, err := inst.NewHorizonSession(8, qp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ses.SetAnytime(true)
	input := HorizonInput{
		X0:     inst.NewState(),
		Demand: varyForecast(8, 24, 300, 40),
		Prices: varyForecast(8, 12, 0.1, 0.01),
	}
	// An already-expired deadline trips the solver at its first poll;
	// the session must still return the initial-iterate plan.
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	plan, err := ses.SolveCtx(ctx, input)
	if !errors.Is(err, qp.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if plan == nil {
		t.Fatal("anytime session returned nil plan with deadline error")
	}
	if plan.Anytime == nil {
		t.Fatal("plan missing anytime metadata")
	}
	if plan.Anytime.Iterations != 0 {
		t.Errorf("iterations = %d, want 0 for an expired deadline", plan.Anytime.Iterations)
	}
}
