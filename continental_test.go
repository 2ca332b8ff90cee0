package dspp_test

import (
	"math"
	"testing"

	"dspp"
	"dspp/internal/qp"
)

// stepContinental steps the controller through periods of the n120,
// 12-DC, W=2 continental scenario of the given topology seed, each
// location's demand swinging with amplitude amp phased by its longitude
// (amp 0 is the flat steady state), and returns each period's IPM
// iterations. A degraded or loose step, a solve at the iteration cap, or
// a plan infeasible against the instance fails the test: every planned
// state must be nonnegative on SLA-feasible pairs only, within capacity,
// and meet the aggregate SLA demand constraint (eq. 10) of its horizon
// step.
func stepContinental(t *testing.T, seed int64, periods int, amp float64) []int {
	t.Helper()
	const (
		locations = 120
		dcsites   = 12
		horizon   = 2
		tol       = 1e-6
	)
	scn, err := dspp.NewContinentalScenario(dspp.ContinentalScenarioConfig{
		Locations: locations, DCSites: dcsites, Seed: seed, Horizon: horizon,
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
	iters := make([]int, periods)
	for k := range iters {
		window := demand[k+1 : k+1+horizon]
		res, err := ctrl.Step(window, prices)
		if err != nil {
			t.Fatalf("period %d: %v", k, err)
		}
		if res.Degradation.Degraded() || res.Degradation.Loose {
			t.Fatalf("period %d: step %v", k, res.Degradation)
		}
		iters[k] = res.Plan.QPIterations
		if capIters := qp.DefaultOptions().MaxIterations; iters[k] >= capIters {
			t.Fatalf("period %d: solve ran to the %d-iteration cap", k, capIters)
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
	}
	return iters
}

// TestContinentalDiurnalIterations steps the continental-diurnal trace
// (topology seed 42, amplitude 0.3) through the controller. Twice a
// simulated day the shifted plan jams the warm-started solve, which took
// 33 and 29 IPM iterations here before the solver's recentering rung; now
// no steady period may take more than 12 and the mean stays at most 4.8.
func TestContinentalDiurnalIterations(t *testing.T) {
	const (
		maxIters = 12
		maxMean  = 4.8
	)
	iters := stepContinental(t, 42, 49, 0.3)
	total := 0
	for k, it := range iters[1:] { // period 0 is the cold start
		if it > maxIters {
			t.Errorf("period %d: %d IPM iterations, want ≤ %d", k+1, it, maxIters)
		}
		total += it
	}
	if mean := float64(total) / float64(len(iters)-1); mean > maxMean {
		t.Fatalf("mean %.3f IPM iterations per steady period, want ≤ %g", mean, maxMean)
	}
}

// TestContinentalFlatDoesNotStall runs the flat n120 reproduction
// (dsppsim -continental -locations 120 -dcsites 12 -horizon 2 -periods 60
// -diurnal-amp 0 -seed 3). Without the solver's gap floor, two full affine
// steps took μ to ~1e-14 while the dual residual was still unconverged,
// and 25 of the 60 periods then ran to the iteration cap and were
// accepted loose: 2601 IPM iterations in all. With it every step is
// clean, and the run takes 139.
func TestContinentalFlatDoesNotStall(t *testing.T) {
	const maxTotal = 200
	total := 0
	for _, it := range stepContinental(t, 3, 60, 0) {
		total += it
	}
	if total > maxTotal {
		t.Fatalf("%d IPM iterations over 60 periods, want ≤ %d", total, maxTotal)
	}
}
