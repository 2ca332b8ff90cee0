package dspp_test

import (
	"math"
	"testing"

	"dspp"
)

// TestContinentalDiurnalIterations steps the continental-diurnal trace
// (n120, 12 DCs, topology seed 42, W=2, amplitude 0.3, each location
// phased by its longitude) through the controller. Twice a simulated day
// the shifted plan jams the warm-started solve, which took 33 and 29 IPM
// iterations here before the solver's recentering rung; now no steady
// period may take more than 12 and the mean stays at most 4.8. Every
// planned state must be feasible against the instance: nonnegative on
// SLA-feasible pairs only, within capacity, and meeting the aggregate
// SLA demand constraint of its horizon step.
func TestContinentalDiurnalIterations(t *testing.T) {
	const (
		locations = 120
		dcsites   = 12
		horizon   = 2
		periods   = 49
		amp       = 0.3
		maxIters  = 12
		maxMean   = 4.8
		tol       = 1e-6
	)
	scn, err := dspp.NewContinentalScenario(dspp.ContinentalScenarioConfig{
		Locations: locations, DCSites: dcsites, Seed: 42, Horizon: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := scn.Inst
	demand := make([][]float64, periods+horizon+1)
	for k := range demand {
		demand[k] = make([]float64, locations)
		for v := range demand[k] {
			phase := scn.Net.Access[v].City.Lon/15 + 6
			demand[k][v] = scn.Demand[0][v] * ((1 - amp) + amp*math.Sin(2*math.Pi*(float64(k)+phase)/24))
		}
	}
	prices := scn.Prices[:horizon]
	ctrl, err := dspp.NewController(inst, horizon)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for k := 0; k < periods; k++ {
		window := demand[k+1 : k+1+horizon]
		res, err := ctrl.Step(window, prices)
		if err != nil {
			t.Fatalf("period %d: %v", k, err)
		}
		if res.Degradation.Degraded() || res.Degradation.Loose {
			t.Fatalf("period %d: step %v", k, res.Degradation)
		}
		for st, x := range res.Plan.X {
			if err := inst.CheckState(x); err != nil {
				t.Fatalf("period %d step %d: %v", k, st, err)
			}
			for l, load := range x.TotalByDC() {
				c, err := inst.Capacity(l)
				if err != nil {
					t.Fatal(err)
				}
				if load > c*(1+tol) {
					t.Fatalf("period %d step %d: DC %d hosts %g, capacity %g", k, st, l, load, c)
				}
			}
			slack, err := inst.DemandSlack(x, window[st])
			if err != nil {
				t.Fatal(err)
			}
			for v, s := range slack {
				if s < -tol*(1+window[st][v]) {
					t.Fatalf("period %d step %d: location %d short of its SLA demand by %g", k, st, v, -s)
				}
			}
		}
		if k == 0 {
			continue // the cold start
		}
		it := res.Plan.QPIterations
		if it > maxIters {
			t.Errorf("period %d: %d IPM iterations, want ≤ %d", k, it, maxIters)
		}
		total += it
	}
	if mean := float64(total) / (periods - 1); mean > maxMean {
		t.Fatalf("mean %.3f IPM iterations per steady period, want ≤ %g", mean, maxMean)
	}
}
