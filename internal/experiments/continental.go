package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"dspp/internal/core"
	"dspp/internal/decomp"
	"dspp/internal/qp"
)

// continentalHorizon is the window of every scaling case: W = 2, the
// continental workloads' horizon.
const continentalHorizon = 2

// Plan-check tolerances, relative to the bound checked: interior-point
// plans meet their constraints only to the solver's residual tolerance.
const (
	continentalCapRelTol = 1e-5
	continentalSLARelTol = 1e-5
)

// continentalMaxIters bounds the IPM iterations of every cold scaling
// solve: Mehrotra's least-squares start takes 10–12 from n120 to n2000,
// where the old x = 0 start took 19–26.
const continentalMaxIters = 15

// ContinentalScalingCase is one point of the continental scaling curve.
type ContinentalScalingCase struct {
	Name               string
	Locations, DCSites int
	Seed               int64
	// Bound, when positive, is the most wall time the cold solve may take.
	Bound time.Duration
}

// ContinentalScalingRecord is one measured point.
type ContinentalScalingRecord struct {
	ContinentalScalingCase
	Pairs      int
	Iterations int
	Seconds    float64
	Objective  float64
	// Problem is the first way the plan failed its instance check; nil
	// when every step is feasible.
	Problem error
}

// ContinentalScalingResult is the cold monolithic scaling curve.
type ContinentalScalingResult struct {
	Table   *Table
	Records []ContinentalScalingRecord
}

// ContinentalScalingCases returns the curve's cases. The smoke set
// (n120, n240) runs in seconds; full adds n500, n1000 and n2000, and
// bounds the n1000 solve at 3 s.
func ContinentalScalingCases(full bool) []ContinentalScalingCase {
	cases := []ContinentalScalingCase{
		{Name: "n120", Locations: 120, DCSites: 12, Seed: 41},
		{Name: "n240", Locations: 240, DCSites: 24, Seed: 42},
	}
	if !full {
		return cases
	}
	return append(cases,
		ContinentalScalingCase{Name: "n500", Locations: 500, DCSites: 50, Seed: 43},
		ContinentalScalingCase{Name: "n1000", Locations: 1000, DCSites: 100, Seed: 44, Bound: 3 * time.Second},
		ContinentalScalingCase{Name: "n2000", Locations: 2000, DCSites: 200, Seed: 45},
	)
}

// ContinentalScaling measures, per case, one cold monolithic horizon
// solve of a fresh continental scenario: the session build (horizon
// structure and KKT analysis) and the solve, as a restarted controller
// pays them. Every planned step is checked against the instance.
func ContinentalScaling(ctx context.Context, cases []ContinentalScalingCase) (*ContinentalScalingResult, error) {
	t := &Table{
		Title:   "Continental scaling: cold monolithic horizon solves (W=2)",
		Columns: []string{"case", "locs", "DCs", "pairs", "IPM iters", "solve s", "objective", "plan check"},
	}
	var recs []ContinentalScalingRecord
	for _, cs := range cases {
		scn, err := decomp.NewScenario(decomp.ScenarioConfig{
			Locations: cs.Locations, DCSites: cs.DCSites, Seed: cs.Seed, Horizon: continentalHorizon,
		})
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", cs.Name, err)
		}
		inst := scn.Inst
		start := time.Now()
		ses, err := inst.NewHorizonSession(continentalHorizon, qp.Options{})
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", cs.Name, err)
		}
		plan, err := ses.SolveCtx(ctx, core.HorizonInput{X0: inst.NewState(), Demand: scn.Demand, Prices: scn.Prices})
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", cs.Name, err)
		}
		rec := ContinentalScalingRecord{
			ContinentalScalingCase: cs,
			Pairs:                  inst.NumPairs(),
			Iterations:             plan.QPIterations,
			Seconds:                time.Since(start).Seconds(),
			Objective:              plan.Objective,
		}
		for step, x := range plan.X {
			if err := checkContinentalPlan(inst, x, scn.Demand[step]); err != nil {
				rec.Problem = fmt.Errorf("step %d: %w", step, err)
				break
			}
		}
		verdict := "ok"
		if rec.Problem != nil {
			verdict = "FAIL"
		}
		t.AddRow(cs.Name,
			fmt.Sprintf("%d", cs.Locations), fmt.Sprintf("%d", cs.DCSites),
			fmt.Sprintf("%d", rec.Pairs), fmt.Sprintf("%d", rec.Iterations),
			fmt.Sprintf("%.3f", rec.Seconds), fmt.Sprintf("%.2f", rec.Objective), verdict)
		recs = append(recs, rec)
	}
	return &ContinentalScalingResult{Table: t, Records: recs}, nil
}

// checkContinentalPlan checks one planned allocation against the
// instance itself: dimensions and nonnegativity, per-DC capacity, and
// the SLA of eq. 10 for the step's demand under the proportional
// assignment.
func checkContinentalPlan(inst *core.Instance, x core.State, demand []float64) error {
	if err := inst.CheckState(x); err != nil {
		return err
	}
	var maxX float64
	for l, row := range x {
		var used float64
		for _, v := range row {
			used += v
			maxX = math.Max(maxX, v)
		}
		c, err := inst.Capacity(l)
		if err != nil {
			return err
		}
		if used > c*(1+continentalCapRelTol)+continentalCapRelTol {
			return fmt.Errorf("DC %d hosts %g servers, capacity %g", l, used, c)
		}
	}
	ok, err := inst.SLASatisfied(x, demand, continentalSLARelTol*(1+maxX))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("allocation misses the SLA for its demand")
	}
	return nil
}

// Check verifies the curve: every plan passes its instance check, every
// cold solve took at most continentalMaxIters IPM iterations, and every
// bounded solve finished inside its bound.
func (r *ContinentalScalingResult) Check() error {
	for _, rec := range r.Records {
		if rec.Problem != nil {
			return fmt.Errorf("%w: %s plan infeasible: %v", ErrShape, rec.Name, rec.Problem)
		}
		if rec.Iterations > continentalMaxIters {
			return fmt.Errorf("%w: %s cold solve took %d IPM iterations, bound %d", ErrShape, rec.Name, rec.Iterations, continentalMaxIters)
		}
		if rec.Bound > 0 && rec.Seconds > rec.Bound.Seconds() {
			return fmt.Errorf("%w: %s cold solve took %.3f s, bound %v", ErrShape, rec.Name, rec.Seconds, rec.Bound)
		}
	}
	return nil
}
