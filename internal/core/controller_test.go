package core

import (
	"errors"
	"math"
	"testing"

	"dspp/internal/qp"
)

func TestNewControllerValidation(t *testing.T) {
	inst := twoByTwo(t)
	if _, err := NewController(nil, 3); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil instance err = %v", err)
	}
	if _, err := NewController(inst, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("horizon 0 err = %v", err)
	}
	bad := inst.NewState()
	bad[0][0] = -5
	if _, err := NewController(inst, 2, WithInitialState(bad)); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad initial state err = %v", err)
	}
}

func TestControllerAccessors(t *testing.T) {
	inst := twoByTwo(t)
	init := inst.NewState()
	init[0][0] = 4
	c, err := NewController(inst, 5, WithInitialState(init))
	if err != nil {
		t.Fatal(err)
	}
	if c.Horizon() != 5 {
		t.Errorf("Horizon = %d", c.Horizon())
	}
	if c.Instance() != inst {
		t.Error("Instance identity lost")
	}
	s := c.State()
	if s[0][0] != 4 {
		t.Errorf("State = %v", s)
	}
	s[0][0] = 99 // must not leak into the controller
	if c.State()[0][0] != 4 {
		t.Error("State exposes internal storage")
	}
	next := inst.NewState()
	next[1][1] = 2
	if err := c.SetState(next); err != nil {
		t.Fatal(err)
	}
	if c.State()[1][1] != 2 {
		t.Error("SetState did not apply")
	}
	next[1][1] = -1
	if err := c.SetState(next); !errors.Is(err, ErrBadInput) {
		t.Errorf("SetState bad err = %v", err)
	}
}

func TestControllerTracksDemand(t *testing.T) {
	inst := singleDC(t, 1e-4, math.Inf(1))
	c, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Ramp demand up, then down; allocation should follow (a=0.01 →
	// servers ≈ demand/100).
	demands := []float64{1000, 3000, 5000, 3000, 1000}
	var allocs []float64
	for _, d := range demands {
		forecast := constForecast(3, []float64{d})
		prices := constForecast(3, []float64{0.1})
		res, err := c.Step(forecast, prices)
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, res.NewState[0][0])
		// Invariant: demand met after every applied step.
		slack, err := inst.DemandSlack(res.NewState, []float64{d})
		if err != nil {
			t.Fatal(err)
		}
		if slack[0] < -1e-4 {
			t.Errorf("demand %g unmet: slack %g", d, slack[0])
		}
	}
	if allocs[2] <= allocs[0] {
		t.Errorf("allocation did not rise with demand: %v", allocs)
	}
	if allocs[4] >= allocs[2] {
		t.Errorf("allocation did not fall with demand: %v", allocs)
	}
}

func TestControllerStepForecastTooShort(t *testing.T) {
	inst := twoByTwo(t)
	c, err := NewController(inst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(constForecast(2, []float64{1, 1}), constForecast(4, []float64{1, 1})); !errors.Is(err, ErrBadInput) {
		t.Errorf("short demand err = %v", err)
	}
	if _, err := c.Step(constForecast(4, []float64{1, 1}), constForecast(1, []float64{1, 1})); !errors.Is(err, ErrBadInput) {
		t.Errorf("short prices err = %v", err)
	}
}

func TestControllerLongerForecastTruncated(t *testing.T) {
	inst := singleDC(t, 1e-3, math.Inf(1))
	c, err := NewController(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Step(constForecast(10, []float64{500}), constForecast(10, []float64{0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Horizon() != 2 {
		t.Errorf("plan horizon = %d, want 2", res.Plan.Horizon())
	}
}

func TestControllerAppliedMatchesPlanFirstStep(t *testing.T) {
	inst := twoByTwo(t)
	c, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Step(constForecast(3, []float64{5, 5}), constForecast(3, []float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 2; l++ {
		for v := 0; v < 2; v++ {
			if res.Applied[l][v] != res.Plan.U[0][l][v] {
				t.Fatalf("Applied != Plan.U[0] at (%d,%d)", l, v)
			}
		}
	}
	// Controller state advanced to the plan's first state.
	got := c.State()
	for l := 0; l < 2; l++ {
		for v := 0; v < 2; v++ {
			if got[l][v] != res.Plan.X[0][l][v] {
				t.Fatalf("controller state != Plan.X[0] at (%d,%d)", l, v)
			}
		}
	}
}

// Paper Fig. 6 property: a longer horizon yields smaller per-step changes
// (smoother control) on a peaky demand profile — with lookahead the
// controller pre-ramps instead of jumping when the spike arrives.
func TestControllerHorizonSmoothing(t *testing.T) {
	demand := []float64{100, 100, 4000, 4000, 100, 100, 4000, 4000, 100, 100, 2000, 500}
	run := func(w int) float64 {
		inst := singleDC(t, 0.05, math.Inf(1))
		c, err := NewController(inst, w)
		if err != nil {
			t.Fatal(err)
		}
		var maxAbs float64
		for k := 0; k < len(demand); k++ {
			fc := make([][]float64, w)
			pr := make([][]float64, w)
			for i := 0; i < w; i++ {
				idx := k + 1 + i
				if idx >= len(demand) {
					idx = len(demand) - 1
				}
				fc[i] = []float64{demand[idx]}
				pr[i] = []float64{0.05}
			}
			res, err := c.Step(fc, pr)
			if err != nil {
				t.Fatal(err)
			}
			if a := math.Abs(res.Applied[0][0]); a > maxAbs {
				maxAbs = a
			}
		}
		return maxAbs
	}
	short := run(1)
	long := run(6)
	if long >= short {
		t.Errorf("W=6 max |u| %g should be below W=1 %g", long, short)
	}
}

// stepForecasts is a deterministic W-period forecast for MPC step k:
// demand and prices drift with k, so every warm step has new data.
func stepForecasts(k, l, v, w int) (demand, prices [][]float64) {
	demand, prices = make([][]float64, w), make([][]float64, w)
	for t := 0; t < w; t++ {
		demand[t], prices[t] = make([]float64, v), make([]float64, l)
		for j := range demand[t] {
			demand[t][j] = 1000 + 40*float64((k+t+2*j)%7)
		}
		for j := range prices[t] {
			prices[t][j] = 0.05 + 0.01*float64((k+t+j)%4)
		}
	}
	return demand, prices
}

// TestControllerStepsMatchFreshSessions runs twelve MPC steps through one
// controller, with a capacity cut that makes steps 5–7 infeasible (they
// take the soft rung) and a restore that returns the rest to warm hard
// solves. Every step's plan must equal, bit for bit, a fresh one-use
// session's solve of the same input: a hard step warm-started from a
// copy of the controller's capsule taken before the step, a soft step
// solved cold on a soft session. Each step's Applied and NewState must
// also survive the next step unchanged (the StepResult lifetime).
func TestControllerStepsMatchFreshSessions(t *testing.T) {
	const l, v, w = 3, 5, 4
	inst := sessionTestInstance(t, l, v)
	normal := inst.Capacities()
	cut := []float64{1, 1, 1}
	ctrl, err := NewController(inst, w)
	if err != nil {
		t.Fatal(err)
	}
	var prev *StepResult
	var prevApplied, prevState State
	for k := 0; k < 12; k++ {
		caps, soft := normal, k >= 5 && k < 8
		if soft {
			caps = cut
		}
		if err := inst.SetCapacities(caps); err != nil {
			t.Fatal(err)
		}
		demand, prices := stepForecasts(k, l, v, w)
		input := HorizonInput{X0: ctrl.State(), Demand: demand, Prices: prices}
		if !soft {
			input.Warm, input.WarmShift = ImportWarm(ctrl.WarmCapsule().Export()), 1
		}
		want, err := solveOnce(inst, input, qp.DefaultOptions(), soft)
		if err != nil {
			t.Fatalf("step %d: fresh session: %v", k, err)
		}

		res, err := ctrl.Step(demand, prices)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		wantMode := DegradeNone
		if soft {
			wantMode = DegradeSoft
		}
		if res.Degradation.Mode != wantMode {
			t.Fatalf("step %d: mode %v, want %v", k, res.Degradation.Mode, wantMode)
		}
		// The soft rung leaves no capsule, so only step 8 restarts cold.
		if warm := !soft && k > 0 && k != 8; warm != (input.Warm != nil) {
			t.Fatalf("step %d: warm capsule %v, want warm %v", k, input.Warm != nil, warm)
		}
		plansBitIdentical(t, k, res.Plan, want)
		if soft && res.Plan.TotalShed() != want.TotalShed() {
			t.Fatalf("step %d: shed %v, fresh session %v", k, res.Plan.TotalShed(), want.TotalShed())
		}

		if prev != nil {
			if !statesEqual(prev.Applied, prevApplied) || !statesEqual(prev.NewState, prevState) {
				t.Fatalf("step %d overwrote step %d's Applied or NewState", k, k-1)
			}
		}
		prev, prevApplied, prevState = res, res.Applied.Clone(), res.NewState.Clone()
	}
}

func statesEqual(a, b State) bool {
	for l := range a {
		if !slicesEqual(a[l], b[l]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestControllerStepSteadyStateAllocs bounds the allocations of a warm,
// unbudgeted MPC step at L4 V8 W5: the horizon session keeps the solver
// state, the shifted warm start and the plan arenas across steps, and the
// controller copies the new state into its own, so the StepResult is the
// one allocation left.
func TestControllerStepSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector bookkeeping allocates nondeterministically")
	}
	const l, v, w = 4, 8, 5
	inst := benchInstance(t, l, v)
	ctrl, err := NewController(inst, w)
	if err != nil {
		t.Fatal(err)
	}
	demand, prices := stepForecasts(0, l, v, w)
	step := func() {
		if _, err := ctrl.Step(demand, prices); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > 1 {
		t.Fatalf("warm controller step allocates %v times, want at most 1", allocs)
	}
}
