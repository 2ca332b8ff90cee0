package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dspp/internal/qp"
)

// solveOnce solves input on a fresh one-use session — the hard QP, or its
// soft relaxation — the reference solve the core tests compare against.
func solveOnce(in *Instance, input HorizonInput, opts qp.Options, soft bool) (*Plan, error) {
	ses, err := in.newHorizonSession(len(input.Demand), opts, soft)
	if err != nil {
		return nil, err
	}
	return ses.Solve(input)
}

// singleDC builds the Fig.4 setting: one DC, one location, a = 0.01
// (100 req/s per server), weight c, capacity cap.
func singleDC(t *testing.T, c, cap64 float64) *Instance {
	t.Helper()
	inst, err := NewInstance(Config{
		SLA:             [][]float64{{0.01}},
		ReconfigWeights: []float64{c},
		Capacities:      []float64{cap64},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func constForecast(w int, perStep []float64) [][]float64 {
	out := make([][]float64, w)
	for t := range out {
		out[t] = append([]float64(nil), perStep...)
	}
	return out
}

func TestSolveHorizonMeetsDemand(t *testing.T) {
	inst := singleDC(t, 1e-4, math.Inf(1))
	plan, err := solveOnce(inst, HorizonInput{
		X0:     inst.NewState(),
		Demand: constForecast(3, []float64{1000}),
		Prices: constForecast(3, []float64{0.1}),
	}, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Horizon() != 3 {
		t.Fatalf("horizon = %d", plan.Horizon())
	}
	for step, x := range plan.X {
		// Demand 1000 at a=0.01 needs ≥ 10 servers.
		if x[0][0] < 10-1e-4 {
			t.Errorf("step %d: x = %g, want ≥ 10", step, x[0][0])
		}
	}
	// Cost pressure keeps the allocation near the minimum.
	if plan.X[2][0][0] > 11 {
		t.Errorf("final x = %g, want close to 10", plan.X[2][0][0])
	}
}

func TestSolveHorizonRespectsCapacity(t *testing.T) {
	// Two DCs; cheap one has tiny capacity, so demand must spill over.
	inst, err := NewInstance(Config{
		SLA:             [][]float64{{0.01, 0.01}, {0.01, 0.01}},
		ReconfigWeights: []float64{1e-4, 1e-4},
		Capacities:      []float64{5, 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solveOnce(inst, HorizonInput{
		X0:     inst.NewState(),
		Demand: constForecast(2, []float64{1000, 1000}), // needs 20 servers total
		Prices: constForecast(2, []float64{0.01, 1.0}),  // DC0 100x cheaper
	}, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	for step, x := range plan.X {
		total0 := x[0][0] + x[0][1]
		if total0 > 5+1e-4 {
			t.Errorf("step %d: DC0 load %g exceeds capacity 5", step, total0)
		}
		// All demand served.
		slack, err := inst.DemandSlack(x, []float64{1000, 1000})
		if err != nil {
			t.Fatal(err)
		}
		for v, s := range slack {
			if s < -1e-3 {
				t.Errorf("step %d: location %d slack %g", step, v, s)
			}
		}
	}
	// The binding cheap DC must carry a positive capacity dual.
	duals := plan.TotalCapacityDuals()
	if duals[0] <= 1e-9 {
		t.Errorf("binding capacity dual = %g, want > 0", duals[0])
	}
	if duals[1] > 1e-6 {
		t.Errorf("slack capacity dual = %g, want ~0", duals[1])
	}
}

func TestSolveHorizonPrefersCheapDC(t *testing.T) {
	inst, err := NewInstance(Config{
		SLA:             [][]float64{{0.01}, {0.01}},
		ReconfigWeights: []float64{1e-5, 1e-5},
		Capacities:      []float64{math.Inf(1), math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solveOnce(inst, HorizonInput{
		X0:     inst.NewState(),
		Demand: constForecast(4, []float64{1000}),
		Prices: constForecast(4, []float64{1.0, 0.2}),
	}, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	final := plan.X[3]
	if final[1][0] < final[0][0] {
		t.Errorf("expensive DC carries more load: %g vs %g", final[0][0], final[1][0])
	}
	if final[1][0] < 8 {
		t.Errorf("cheap DC load %g, want most of the 10 required", final[1][0])
	}
}

func TestSolveHorizonReconfigSmoothing(t *testing.T) {
	// A demand spike at step 1 only; higher c spreads the ramp.
	mk := func(c float64) float64 {
		inst := singleDC(t, c, math.Inf(1))
		demand := [][]float64{{100}, {5000}, {100}, {100}}
		prices := constForecast(4, []float64{0.01})
		plan, err := solveOnce(inst, HorizonInput{
			X0:     inst.NewState(),
			Demand: demand,
			Prices: prices,
		}, qp.DefaultOptions(), false)
		if err != nil {
			t.Fatal(err)
		}
		// Max per-step change.
		var maxStep float64
		for _, u := range plan.U {
			if a := math.Abs(u[0][0]); a > maxStep {
				maxStep = a
			}
		}
		return maxStep
	}
	smooth := mk(1.0)
	aggressive := mk(1e-6)
	if smooth >= aggressive {
		t.Errorf("higher reconfig weight should reduce max step: %g vs %g", smooth, aggressive)
	}
}

func TestSolveHorizonStartsFromNonzeroState(t *testing.T) {
	inst := singleDC(t, 1e-3, math.Inf(1))
	x0 := inst.NewState()
	x0[0][0] = 50
	plan, err := solveOnce(inst, HorizonInput{
		X0:     x0,
		Demand: constForecast(3, []float64{1000}), // needs only 10
		Prices: constForecast(3, []float64{1.0}),
	}, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Expensive prices push the over-allocation down toward 10.
	if plan.X[2][0][0] >= 50 {
		t.Errorf("no scale-down from 50: %g", plan.X[2][0][0])
	}
	if plan.X[2][0][0] < 10-1e-4 {
		t.Errorf("scaled below demand requirement: %g", plan.X[2][0][0])
	}
}

func TestSolveHorizonInputValidation(t *testing.T) {
	inst := twoByTwo(t)
	x0 := inst.NewState()
	good := HorizonInput{
		X0:     x0,
		Demand: constForecast(2, []float64{1, 1}),
		Prices: constForecast(2, []float64{1, 1}),
	}
	cases := []struct {
		name   string
		mutate func(h HorizonInput) HorizonInput
	}{
		{"empty horizon", func(h HorizonInput) HorizonInput { h.Demand = nil; return h }},
		{"price horizon mismatch", func(h HorizonInput) HorizonInput { h.Prices = h.Prices[:1]; return h }},
		{"demand width", func(h HorizonInput) HorizonInput {
			h.Demand = constForecast(2, []float64{1})
			return h
		}},
		{"price width", func(h HorizonInput) HorizonInput {
			h.Prices = constForecast(2, []float64{1})
			return h
		}},
		{"negative demand", func(h HorizonInput) HorizonInput {
			h.Demand = constForecast(2, []float64{-1, 1})
			return h
		}},
		{"negative price", func(h HorizonInput) HorizonInput {
			h.Prices = constForecast(2, []float64{-1, 1})
			return h
		}},
		{"bad state", func(h HorizonInput) HorizonInput {
			bad := inst.NewState()
			bad[0][0] = -1
			h.X0 = bad
			return h
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := solveOnce(inst, tc.mutate(good), qp.DefaultOptions(), false); !errors.Is(err, ErrBadInput) {
				t.Errorf("err = %v, want ErrBadInput", err)
			}
		})
	}
}

func TestSolveHorizonObjectiveMatchesReplay(t *testing.T) {
	// The plan's objective must equal the replayed per-period costs.
	inst, err := NewInstance(Config{
		SLA:             [][]float64{{0.02, 0.01}, {0.01, 0.03}},
		ReconfigWeights: []float64{0.001, 0.002},
		Capacities:      []float64{200, 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	demand := [][]float64{{500, 300}, {800, 200}, {100, 900}}
	prices := [][]float64{{0.5, 0.3}, {0.2, 0.9}, {0.4, 0.4}}
	x0 := inst.NewState()
	x0[0][0] = 2
	plan, err := solveOnce(inst, HorizonInput{X0: x0, Demand: demand, Prices: prices}, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	var replay float64
	for step := 0; step < plan.Horizon(); step++ {
		cb, err := inst.PeriodCost(plan.X[step], plan.U[step], prices[step])
		if err != nil {
			t.Fatal(err)
		}
		replay += cb.Total()
	}
	if math.Abs(replay-plan.Objective) > 1e-4*(1+math.Abs(replay)) {
		t.Errorf("objective %g != replayed %g", plan.Objective, replay)
	}
}

// Property: horizon solutions are always demand- and capacity-feasible for
// random feasible instances.
func TestQuickHorizonFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 1 + rng.Intn(3)
		v := 1 + rng.Intn(3)
		w := 1 + rng.Intn(3)
		sla := make([][]float64, l)
		for i := range sla {
			sla[i] = make([]float64, v)
			for j := range sla[i] {
				sla[i][j] = 0.005 + rng.Float64()*0.05
			}
		}
		weights := make([]float64, l)
		caps := make([]float64, l)
		for i := range weights {
			weights[i] = 1e-4 + rng.Float64()*1e-2
			caps[i] = math.Inf(1)
		}
		inst, err := NewInstance(Config{SLA: sla, ReconfigWeights: weights, Capacities: caps})
		if err != nil {
			return false
		}
		demand := make([][]float64, w)
		prices := make([][]float64, w)
		for t2 := 0; t2 < w; t2++ {
			demand[t2] = make([]float64, v)
			prices[t2] = make([]float64, l)
			for j := range demand[t2] {
				demand[t2][j] = rng.Float64() * 500
			}
			for i := range prices[t2] {
				prices[t2][i] = 0.05 + rng.Float64()
			}
		}
		plan, err := solveOnce(inst, HorizonInput{
			X0: inst.NewState(), Demand: demand, Prices: prices,
		}, qp.DefaultOptions(), false)
		if err != nil {
			return false
		}
		for t2, x := range plan.X {
			slack, err := inst.DemandSlack(x, demand[t2])
			if err != nil {
				return false
			}
			for _, s := range slack {
				if s < -1e-3 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(64))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSolveHorizonDetectsImpossibleDemand(t *testing.T) {
	// Capacity 5 servers at a = 0.01 supports at most 500 req/s.
	inst, err := NewInstance(Config{
		SLA:             [][]float64{{0.01}},
		ReconfigWeights: []float64{1e-3},
		Capacities:      []float64{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = solveOnce(inst, HorizonInput{
		X0:     inst.NewState(),
		Demand: constForecast(2, []float64{600}),
		Prices: constForecast(2, []float64{0.1}),
	}, qp.DefaultOptions(), false)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	// Just inside the ceiling must solve.
	plan, err := solveOnce(inst, HorizonInput{
		X0:     inst.NewState(),
		Demand: constForecast(2, []float64{490}),
		Prices: constForecast(2, []float64{0.1}),
	}, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatalf("feasible case failed: %v", err)
	}
	if plan.X[1][0][0] > 5+1e-6 {
		t.Errorf("capacity exceeded: %g", plan.X[1][0][0])
	}
}
