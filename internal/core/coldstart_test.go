package core_test

import (
	"fmt"
	"math"
	"testing"

	"dspp"
	"dspp/internal/core"
	"dspp/internal/qp"
)

// coldStartMaxIters bounds a cold n120 W2 continental solve. The start
// from x = 0, s = max(h, 1), z = 1 took 17–21 iterations on these
// scenarios; Mehrotra's least-squares start takes 9–11.
const coldStartMaxIters = 12

// TestColdStartContinental solves the n120, 12-DC, W = 2 continental
// scenario cold for topology seeds 1–8 and 42. Each solve must converge
// within coldStartMaxIters iterations, reach the optimum of a solve at
// Tolerance 1e-12 within the stopping rule's bound on the total gap,
// m·tol·(1+|obj|), and plan states that meet the demand (eq. 12), every
// capacity and nonnegativity on the instance itself.
func TestColdStartContinental(t *testing.T) {
	const w = 2
	tol := qp.DefaultOptions().Tolerance
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 42} {
		scn, err := dspp.NewContinentalScenario(dspp.ContinentalScenarioConfig{
			Locations: 120, DCSites: 12, Seed: seed, Horizon: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		inst := scn.Inst
		input := core.HorizonInput{X0: inst.NewState(), Demand: scn.Demand, Prices: scn.Prices}
		solve := func(opts qp.Options) *core.Plan {
			t.Helper()
			ses, err := inst.NewHorizonSession(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := ses.Solve(input)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return plan
		}
		plan := solve(qp.Options{})
		ref := solve(qp.Options{Tolerance: 1e-12})
		if plan.QPIterations > coldStartMaxIters || plan.Loose {
			t.Errorf("seed %d: cold solve took %d iterations (loose %v), want ≤ %d",
				seed, plan.QPIterations, plan.Loose, coldStartMaxIters)
		}
		layout, err := inst.HorizonLayoutForTest(w, false)
		if err != nil {
			t.Fatal(err)
		}
		m := float64(w * layout.RowsPerStep)
		// X0 is zero, so the plan's objective is the QP's own.
		if d, bound := math.Abs(plan.Objective-ref.Objective), m*tol*(1+math.Abs(ref.Objective)); d > bound {
			t.Errorf("seed %d: objective %.12g, reference %.12g: off by %.3g, bound %.3g",
				seed, plan.Objective, ref.Objective, d, bound)
		}
		for step, x := range plan.X {
			if err := checkInstancePlan(inst, x, scn.Demand[step]); err != nil {
				t.Errorf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// checkInstancePlan checks one planned state against the instance:
// dimensions and nonnegativity, every DC's capacity and every location's
// aggregate demand constraint, each to the solver's residual tolerance
// relative to the bound.
func checkInstancePlan(inst *core.Instance, x core.State, demand []float64) error {
	const rel = 1e-5
	if err := inst.CheckState(x); err != nil {
		return err
	}
	for l, row := range x {
		var used float64
		for _, v := range row {
			used += v
		}
		c, err := inst.Capacity(l)
		if err != nil {
			return err
		}
		if used > c*(1+rel)+rel {
			return fmt.Errorf("DC %d hosts %g servers, capacity %g", l, used, c)
		}
	}
	slack, err := inst.DemandSlack(x, demand)
	if err != nil {
		return err
	}
	for v, s := range slack {
		if s < -rel*(1+demand[v]) {
			return fmt.Errorf("location %d misses its demand %g by %g", v, demand[v], -s)
		}
	}
	return nil
}
