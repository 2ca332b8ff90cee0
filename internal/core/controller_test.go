package core

import (
	"errors"
	"math"
	"testing"
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
