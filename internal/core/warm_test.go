package core

import (
	"math"
	"math/rand"
	"testing"

	"dspp/internal/qp"
)

// twoDCInstance builds a 2-DC, 2-location capacitated instance whose
// horizon QP carries demand, capacity, and nonnegativity rows — the full
// sparse constraint structure.
func twoDCInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := NewInstance(Config{
		SLA:             [][]float64{{0.01, 0.02}, {0.02, 0.01}},
		ReconfigWeights: []float64{1e-3, 1e-3},
		Capacities:      []float64{400, 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func noisyForecast(rng *rand.Rand, w int, base []float64) [][]float64 {
	out := make([][]float64, w)
	for t := range out {
		out[t] = make([]float64, len(base))
		for i, b := range base {
			out[t][i] = b * (0.9 + 0.2*rng.Float64())
		}
	}
	return out
}

// TestHorizonWarmShiftMatchesColdSolve runs the receding-horizon chain
// twice — cold every step, and warm-started with the one-period shift —
// and checks that warm starting changes neither the trajectory nor the
// cost, while using no more (and cumulatively fewer) IPM iterations.
func TestHorizonWarmShiftMatchesColdSolve(t *testing.T) {
	inst := twoDCInstance(t)
	rng := rand.New(rand.NewSource(11))
	const w, steps = 4, 12
	demand := noisyForecast(rng, steps+w, []float64{5000, 4000})
	prices := noisyForecast(rng, steps+w, []float64{0.05, 0.06})

	var warm *HorizonWarm
	state := inst.NewState()
	coldState := inst.NewState()
	coldIters, warmIters := 0, 0
	for k := 0; k < steps; k++ {
		in := HorizonInput{
			X0:     state,
			Demand: demand[k : k+w],
			Prices: prices[k : k+w],
		}
		cold, err := solveOnce(inst, HorizonInput{
			X0:     coldState,
			Demand: demand[k : k+w],
			Prices: prices[k : k+w],
		}, qp.DefaultOptions(), false)
		if err != nil {
			t.Fatalf("step %d cold: %v", k, err)
		}
		in.Warm, in.WarmShift = warm, 1
		got, err := solveOnce(inst, in, qp.DefaultOptions(), false)
		if err != nil {
			t.Fatalf("step %d warm: %v", k, err)
		}
		if math.Abs(got.Objective-cold.Objective) > 1e-4*(1+math.Abs(cold.Objective)) {
			t.Fatalf("step %d: warm objective %g vs cold %g", k, got.Objective, cold.Objective)
		}
		for l := range got.X[0] {
			for v := range got.X[0][l] {
				if math.Abs(got.X[0][l][v]-cold.X[0][l][v]) > 1e-3*(1+cold.X[0][l][v]) {
					t.Fatalf("step %d: x[%d][%d] warm %g vs cold %g",
						k, l, v, got.X[0][l][v], cold.X[0][l][v])
				}
			}
		}
		coldIters += cold.QPIterations
		warmIters += got.QPIterations
		warm = got.Warm
		state = got.X[0]
		coldState = cold.X[0]
	}
	if warmIters > coldIters {
		t.Errorf("warm chain used %d iterations, cold chain %d", warmIters, coldIters)
	}
	t.Logf("IPM iterations over %d steps: cold %d, warm %d", steps, coldIters, warmIters)
}

// TestControllerWarmChain checks the Controller plumbs the shifted warm
// start through Step and drops it on SetState.
func TestControllerWarmChain(t *testing.T) {
	inst := twoDCInstance(t)
	rng := rand.New(rand.NewSource(13))
	const w, steps = 3, 6
	demand := noisyForecast(rng, steps+w, []float64{5000, 4000})
	prices := noisyForecast(rng, steps+w, []float64{0.05, 0.06})

	ctrl, err := NewController(inst, w)
	if err != nil {
		t.Fatal(err)
	}
	first, rest := 0, 0
	for k := 0; k < steps; k++ {
		res, err := ctrl.Step(demand[k:k+w], prices[k:k+w])
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if k == 0 {
			first = res.Plan.QPIterations
		} else {
			rest += res.Plan.QPIterations
		}
	}
	if avg := float64(rest) / float64(steps-1); avg > float64(first) {
		t.Errorf("warm-started steps averaged %.1f iterations, cold first step %d", avg, first)
	}
	if err := ctrl.SetState(inst.NewState()); err != nil {
		t.Fatal(err)
	}
	if ctrl.warm != nil {
		t.Error("SetState did not drop the stale warm start")
	}
}
