package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dspp/internal/linalg"
	"dspp/internal/qp"
)

// diffCase is one instance of the differential table with its horizon
// input.
type diffCase struct {
	name  string
	inst  *Instance
	input HorizonInput
}

// diffInstance draws a random instance: l DCs, v locations, each location
// feasible on feasPer random DCs (at least one), capacities finite with
// probability capFrac. Demand is util times a level every location can
// meet at once: each DC's capacity split evenly over the locations it
// serves.
func diffInstance(t *testing.T, rng *rand.Rand, l, v, w, feasPer int, capFrac, util float64) (*Instance, HorizonInput) {
	t.Helper()
	sla := make([][]float64, l)
	for i := range sla {
		sla[i] = make([]float64, v)
		for j := range sla[i] {
			sla[i][j] = math.Inf(1)
		}
	}
	for j := 0; j < v; j++ {
		for _, i := range rng.Perm(l)[:feasPer] {
			sla[i][j] = 0.004 + 0.004*rng.Float64()
		}
	}
	weights, caps := make([]float64, l), make([]float64, l)
	for i := range weights {
		weights[i] = 1e-5 + 1e-4*rng.Float64()
		caps[i] = math.Inf(1)
		if rng.Float64() < capFrac {
			caps[i] = 500 + 1500*rng.Float64()
		}
	}
	inst, err := NewInstance(Config{SLA: sla, ReconfigWeights: weights, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	served := make([]float64, l)
	for i := range sla {
		for j := range sla[i] {
			if !math.IsInf(sla[i][j], 1) {
				served[i]++
			}
		}
	}
	level := math.Inf(1)
	for j := 0; j < v; j++ {
		var ceil float64
		for i := 0; i < l; i++ {
			if math.IsInf(sla[i][j], 1) {
				continue
			}
			share := caps[i] / served[i]
			if math.IsInf(share, 1) {
				share = 2000
			}
			ceil += share / sla[i][j]
		}
		level = math.Min(level, ceil)
	}
	demand, prices := make([][]float64, w), make([][]float64, w)
	for k := range demand {
		demand[k], prices[k] = make([]float64, v), make([]float64, l)
		for j := range demand[k] {
			demand[k][j] = util * level * (0.8 + 0.2*rng.Float64())
		}
		for i := range prices[k] {
			prices[k][i] = 0.02 + 0.1*rng.Float64()
		}
	}
	return inst, HorizonInput{X0: inst.NewState(), Demand: demand, Prices: prices}
}

// diffCases is the differential table: seeded random instances plus the
// degenerate shapes — one step, one location, one feasible DC per
// location, a capacitated DC serving a single location (a capacity row
// inside the band), no capacity at all, zero demand, and utilization 0.95.
func diffCases(t *testing.T) []diffCase {
	var out []diffCase
	add := func(name string, inst *Instance, in HorizonInput) {
		out = append(out, diffCase{name: name, inst: inst, input: in})
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, v := 2+rng.Intn(5), 2+rng.Intn(7)
		inst, in := diffInstance(t, rng, l, v, 1+rng.Intn(4), 1+rng.Intn(l), 0.7, 0.6)
		add(fmt.Sprintf("random-%d", seed), inst, in)
	}
	rng := rand.New(rand.NewSource(99))
	inst, in := diffInstance(t, rng, 4, 6, 1, 2, 1, 0.6)
	add("W=1", inst, in)
	inst, in = diffInstance(t, rng, 4, 1, 3, 4, 1, 0.6)
	add("one-location", inst, in)
	inst, in = diffInstance(t, rng, 5, 6, 3, 1, 1, 0.6)
	add("one-feasible-DC", inst, in)
	inst, in = diffInstance(t, rng, 3, 5, 3, 2, 0, 0.6)
	add("uncapacitated", inst, in)
	inst, in = diffInstance(t, rng, 4, 6, 3, 2, 1, 0.95)
	add("utilization-0.95", inst, in)
	inst, in = diffInstance(t, rng, 4, 6, 3, 2, 1, 0.6)
	for k := range in.Demand {
		for j := range in.Demand[k] {
			in.Demand[k][j] = 0
		}
	}
	add("zero-demand", inst, in)
	// DC 0 serves location 0 alone and is capacitated: its capacity rows
	// stay in the band while the shared DCs' rows link.
	sla := [][]float64{
		{0.005, math.Inf(1), math.Inf(1), math.Inf(1)},
		{0.006, 0.005, 0.007, math.Inf(1)},
		{math.Inf(1), 0.006, 0.005, 0.005},
	}
	single, err := NewInstance(Config{SLA: sla, ReconfigWeights: []float64{5e-5, 5e-5, 5e-5}, Capacities: []float64{300, 900, 900}})
	if err != nil {
		t.Fatal(err)
	}
	demand, prices := make([][]float64, 3), make([][]float64, 3)
	for k := range demand {
		demand[k] = []float64{80000, 40000, 45000, 30000}
		prices[k] = []float64{0.02, 0.05, 0.04}
	}
	add("single-location-capacitated-DC", single, HorizonInput{X0: single.NewState(), Demand: demand, Prices: prices})
	return out
}

// bandOnly is p with every constraint row in the KKT band: no linking
// rows, and Q widened to the band the coupling rows reach
// (G.GramBandwidth).
func bandOnly(p *qp.Problem) *qp.Problem {
	n, qbw := p.Q.N(), p.Q.Bandwidth()
	q := linalg.NewBandMatrix(n, max(qbw, p.G.GramBandwidth()))
	for i := 0; i < n; i++ {
		for j := max(0, i-qbw); j <= i; j++ {
			_ = q.Set(i, j, p.Q.At(i, j))
		}
	}
	return &qp.Problem{Q: q, C: p.C, G: p.G, H: p.H}
}

// solveBandOnly solves input's horizon QP (soft when soft) with every
// row in the band, on a one-use qp.Session, and reconstructs the plan.
func (in *Instance) solveBandOnly(t *testing.T, input HorizonInput, soft bool) *Plan {
	t.Helper()
	w := len(input.Demand)
	hs, err := in.horizonStructure(w, soft)
	if err != nil {
		t.Fatal(err)
	}
	c, h := linalg.NewVector(hs.n), linalg.NewVector(w*hs.rowsPerStep)
	constCost := in.fillHorizonVectors(hs, input, c, h)
	ses, err := qp.NewSession(bandOnly(&qp.Problem{Q: hs.q, C: c, G: hs.g, H: h}), qp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	return in.buildPlan(hs, input, res, constCost, &planArena{})
}

// checkPlanFeasible asserts a plan against the instance itself: every
// planned state is a valid state, no DC exceeds its capacity, and the
// demand left after shedding is served within the SLA.
func checkPlanFeasible(t *testing.T, label string, in *Instance, input HorizonInput, plan *Plan) {
	t.Helper()
	for k, x := range plan.X {
		if err := in.CheckState(x); err != nil {
			t.Fatalf("%s step %d: %v", label, k, err)
		}
		for l, row := range x {
			c, _ := in.Capacity(l)
			var tot float64
			for _, s := range row {
				tot += s
			}
			if tot > c*(1+1e-7)+1e-7 {
				t.Fatalf("%s step %d: DC %d holds %g servers, capacity %g", label, k, l, tot, c)
			}
		}
		served := append([]float64(nil), input.Demand[k]...)
		if plan.Shed != nil {
			for v := range served {
				served[v] = math.Max(0, served[v]-plan.Shed[k][v])
			}
		}
		if ok, err := in.SLASatisfied(x, served, 1e-5); err != nil || !ok {
			t.Fatalf("%s step %d: SLA not satisfied (err %v)", label, k, err)
		}
	}
}

// TestLinkingMatchesBandDifferential solves every case of the table
// through the block-angular path (band factor plus linking-row Schur
// complement) and through the same QP with every row in the band — hard
// on a fresh session, hard on the same session reused, and soft — and
// requires the objectives to agree to 1e-8 relative and every plan to be
// feasible for the instance.
func TestLinkingMatchesBandDifferential(t *testing.T) {
	for _, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			in, input := tc.inst, tc.input
			ses, err := in.NewHorizonSession(len(input.Demand), qp.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			// The first plan survives the second solve (double buffers).
			fresh, err := ses.Solve(input)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := ses.Solve(input)
			if err != nil {
				t.Fatal(err)
			}
			soft, err := solveOnce(in, input, qp.DefaultOptions(), true)
			if err != nil {
				t.Fatal(err)
			}
			hard := in.solveBandOnly(t, input, false)
			for _, c := range []struct {
				label string
				got   *Plan
				ref   *Plan
			}{
				{"hard fresh session", fresh, hard},
				{"hard reused session", reused, hard},
				{"soft", soft, in.solveBandOnly(t, input, true)},
			} {
				if d := math.Abs(c.got.Objective - c.ref.Objective); d > 1e-8*math.Max(1, math.Abs(c.ref.Objective)) {
					t.Fatalf("%s: objective %.15g, all-band %.15g (rel %.2e)", c.label,
						c.got.Objective, c.ref.Objective, d/math.Max(1, math.Abs(c.ref.Objective)))
				}
				checkPlanFeasible(t, c.label, in, input, c.got)
				checkPlanFeasible(t, c.label+" (all-band)", in, input, c.ref)
			}
		})
	}
}

// TestWarmControllerDoesNotStall steps a Controller 30 times on unchanged
// forecasts for every case of the differential table. Once the plan has
// settled each warm-started period is nearly optimal from the start, so
// no solve may run to the iteration cap (where a plan is accepted only at
// the 1e4× loosened tolerance), every step must be a clean hard solve,
// and every plan must be feasible for the instance. This drives the
// failure mode of a linking-row path whose tracked dual residual drifts
// from the true one: the IPM drives μ to the slack floor while the real
// residual stays above tolerance, and the period spins to the cap.
func TestWarmControllerDoesNotStall(t *testing.T) {
	const steps = 30
	maxIter := qp.DefaultOptions().MaxIterations
	for _, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			in, input := tc.inst, tc.input
			ctrl, err := NewController(in, len(input.Demand))
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for k := 0; k < steps; k++ {
				res, err := ctrl.Step(input.Demand, input.Prices)
				if err != nil {
					t.Fatalf("step %d: %v", k, err)
				}
				if res.Degradation.Mode != DegradeNone {
					t.Fatalf("step %d degraded to %v: %s", k, res.Degradation.Mode, res.Degradation.Cause)
				}
				if res.Plan.QPIterations >= maxIter {
					t.Fatalf("step %d ran to the %d-iteration cap", k, maxIter)
				}
				total += res.Plan.QPIterations
				checkPlanFeasible(t, fmt.Sprintf("step %d", k), in, input, res.Plan)
			}
			t.Logf("%d IPM iterations over %d periods", total, steps)
		})
	}
}
