package core

import (
	"math"
	"testing"

	"dspp/internal/qp"
)

// sessionTestInstance builds a capacitated instance whose capacity values
// can drift between solves, the shape best-response rounds present.
func sessionTestInstance(t *testing.T, l, v int) *Instance {
	t.Helper()
	sla := make([][]float64, l)
	weights := make([]float64, l)
	caps := make([]float64, l)
	for i := 0; i < l; i++ {
		sla[i] = make([]float64, v)
		for j := 0; j < v; j++ {
			sla[i][j] = 0.004 + 0.0001*float64(i+j)
		}
		weights[i] = 1e-4
		caps[i] = 40000 + 5000*float64(i)
	}
	inst, err := NewInstance(Config{SLA: sla, ReconfigWeights: weights, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func sessionTestInput(inst *Instance, l, v, w int) HorizonInput {
	demand := make([][]float64, w)
	prices := make([][]float64, w)
	for t := range demand {
		demand[t] = make([]float64, v)
		prices[t] = make([]float64, l)
		for j := range demand[t] {
			demand[t][j] = 1000 + 50*float64(t+j)
		}
		for j := range prices[t] {
			prices[t][j] = 0.05 + 0.01*float64(j)
		}
	}
	return HorizonInput{X0: inst.NewState(), Demand: demand, Prices: prices}
}

func plansBitIdentical(t *testing.T, round int, a, b *Plan) {
	t.Helper()
	if a.Objective != b.Objective || a.QPIterations != b.QPIterations {
		t.Fatalf("round %d: scalars differ: (%v, %d) vs (%v, %d)", round,
			a.Objective, a.QPIterations, b.Objective, b.QPIterations)
	}
	for ti := range a.U {
		for l := range a.U[ti] {
			for vi := range a.U[ti][l] {
				if a.U[ti][l][vi] != b.U[ti][l][vi] {
					t.Fatalf("round %d: U[%d][%d][%d] %v != %v", round, ti, l, vi, a.U[ti][l][vi], b.U[ti][l][vi])
				}
				if a.X[ti][l][vi] != b.X[ti][l][vi] {
					t.Fatalf("round %d: X[%d][%d][%d] %v != %v", round, ti, l, vi, a.X[ti][l][vi], b.X[ti][l][vi])
				}
			}
		}
	}
	for ti := range a.CapacityDuals {
		for l := range a.CapacityDuals[ti] {
			if a.CapacityDuals[ti][l] != b.CapacityDuals[ti][l] {
				t.Fatalf("round %d: capacity dual [%d][%d] %v != %v", round, ti, l,
					a.CapacityDuals[ti][l], b.CapacityDuals[ti][l])
			}
		}
		for vi := range a.DemandDuals[ti] {
			if a.DemandDuals[ti][vi] != b.DemandDuals[ti][vi] {
				t.Fatalf("round %d: demand dual [%d][%d] %v != %v", round, ti, vi,
					a.DemandDuals[ti][vi], b.DemandDuals[ti][vi])
			}
		}
	}
}

// TestHorizonSessionBitIdenticalToOneShot replays a best-response-shaped
// loop — fixed demand and prices, capacities drifting each round, warm
// starts chained from the previous plan — through one reused
// HorizonSession and, on an identical twin instance, through a fresh
// one-use session per round, and requires every plan field to agree
// bitwise: nothing a session keeps across solves leaks into its plans.
func TestHorizonSessionBitIdenticalToOneShot(t *testing.T) {
	const l, v, w = 3, 5, 4
	instSes := sessionTestInstance(t, l, v)
	instOne := sessionTestInstance(t, l, v)
	ses, err := instSes.NewHorizonSession(w, qp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inputSes := sessionTestInput(instSes, l, v, w)
	inputOne := sessionTestInput(instOne, l, v, w)
	caps := make([]float64, l)
	for round := 0; round < 8; round++ {
		for i := range caps {
			caps[i] = (40000 + 5000*float64(i)) * (1 - 0.02*float64(round%4))
		}
		if err := instSes.SetCapacities(caps); err != nil {
			t.Fatal(err)
		}
		if err := instOne.SetCapacities(caps); err != nil {
			t.Fatal(err)
		}
		pSes, errSes := ses.Solve(inputSes)
		pOne, errOne := solveOnce(instOne, inputOne, qp.DefaultOptions(), false)
		if (errSes == nil) != (errOne == nil) {
			t.Fatalf("round %d: reused session err %v, fresh session err %v", round, errSes, errOne)
		}
		if errSes != nil {
			t.Fatal(errSes)
		}
		plansBitIdentical(t, round, pSes, pOne)
		inputSes.Warm, inputSes.WarmShift = pSes.Warm, 0
		inputOne.Warm, inputOne.WarmShift = pOne.Warm, 0
	}
}

// farCapsule returns a copy of hw scaled far off the central path (y by
// 1e5, z by 1e10): its seated gap exceeds the admission scale, so the
// solver refuses it.
func farCapsule(hw *HorizonWarm) *HorizonWarm {
	bad := *hw
	bad.y, bad.z = hw.y.Clone(), hw.z.Clone()
	bad.y.Scale(1e5)
	bad.z.Scale(1e10)
	return &bad
}

// TestRefusedCapsuleRuleShared drives a capsule far off the central path
// through a fresh one-use session and through a session that has solved
// before, under an iteration cap the cold solve meets with two to spare:
// both refuse the capsule before the first iteration and return the cold
// plan, bit for bit.
func TestRefusedCapsuleRuleShared(t *testing.T) {
	const l, v, w = 3, 5, 4
	inst := sessionTestInstance(t, l, v)
	input := sessionTestInput(inst, l, v, w)
	clean, err := solveOnce(inst, input, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	opts := qp.DefaultOptions()
	opts.MaxIterations = clean.QPIterations + 2
	cold, err := solveOnce(inst, input, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	input.Warm, input.WarmShift = farCapsule(clean.Warm), 0
	one, err := solveOnce(inst, input, opts, false)
	if err != nil {
		t.Fatalf("fresh session: %v", err)
	}
	ses, err := inst.NewHorizonSession(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Solve(HorizonInput{X0: input.X0, Demand: input.Demand, Prices: input.Prices}); err != nil {
		t.Fatal(err)
	}
	viaSes, err := ses.Solve(input)
	if err != nil {
		t.Fatalf("reused session: %v", err)
	}
	plansBitIdentical(t, 0, one, cold)
	plansBitIdentical(t, 1, viaSes, cold)
}

// TestRefusedCapsuleKeepsPreviousPlan pins the plan lifetime across a
// refused capsule: the solve that refuses it is one QP solve, the cold
// one, so its plan is bitwise the cold plan (from a reused session and a
// fresh one alike), and the plan before it — including the warm capsule,
// which borrows the QP result — comes out bitwise unchanged.
func TestRefusedCapsuleKeepsPreviousPlan(t *testing.T) {
	const l, v, w = 3, 5, 4
	inst := sessionTestInstance(t, l, v)
	input := sessionTestInput(inst, l, v, w)
	next := sessionTestInput(inst, l, v, w)
	for _, row := range next.Demand {
		for j := range row {
			row[j] *= 1.05
		}
	}
	// A cap both cold solves meet with two to spare.
	opts := qp.DefaultOptions()
	opts.MaxIterations = 0
	for _, in := range []HorizonInput{input, next} {
		p, err := solveOnce(inst, in, qp.DefaultOptions(), false)
		if err != nil {
			t.Fatal(err)
		}
		opts.MaxIterations = max(opts.MaxIterations, p.QPIterations+2)
	}
	cold, err := solveOnce(inst, next, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := inst.NewHorizonSession(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := ses.Solve(input)
	if err != nil {
		t.Fatal(err)
	}
	want := clonePlan(p1)
	y1, z1 := p1.Warm.y.Clone(), p1.Warm.z.Clone()

	next.Warm = farCapsule(p1.Warm)
	p2, err := ses.Solve(next)
	if err != nil {
		t.Fatal(err)
	}
	plansBitIdentical(t, 0, p2, cold)
	fresh, err := solveOnce(inst, next, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	plansBitIdentical(t, 1, fresh, cold)
	plansBitIdentical(t, 2, p1, want)
	if !slicesEqual(p1.Warm.y, y1) || !slicesEqual(p1.Warm.z, z1) {
		t.Fatal("previous plan's warm capsule overwritten")
	}
}

// clonePlan deep-copies the fields plansBitIdentical compares.
func clonePlan(p *Plan) *Plan {
	c := *p
	c.U, c.X = make([]State, len(p.U)), make([]State, len(p.X))
	for t := range p.U {
		c.U[t], c.X[t] = p.U[t].Clone(), p.X[t].Clone()
	}
	c.CapacityDuals, c.DemandDuals = make([][]float64, len(p.CapacityDuals)), make([][]float64, len(p.DemandDuals))
	for t := range p.CapacityDuals {
		c.CapacityDuals[t] = append([]float64(nil), p.CapacityDuals[t]...)
		c.DemandDuals[t] = append([]float64(nil), p.DemandDuals[t]...)
	}
	return &c
}

// TestHorizonSessionPlanLifetime pins the double-buffer contract: the
// previous plan (the warm-start source) survives the next solve intact.
func TestHorizonSessionPlanLifetime(t *testing.T) {
	const l, v, w = 2, 3, 3
	inst := sessionTestInstance(t, l, v)
	ses, err := inst.NewHorizonSession(w, qp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := sessionTestInput(inst, l, v, w)
	p1, err := ses.Solve(input)
	if err != nil {
		t.Fatal(err)
	}
	obj1 := p1.Objective
	u000 := p1.U[0][0][0]
	input.Warm, input.WarmShift = p1.Warm, 0
	input.Demand[0][0] *= 1.01
	if _, err := ses.Solve(input); err != nil {
		t.Fatal(err)
	}
	if p1.Objective != obj1 || p1.U[0][0][0] != u000 {
		t.Fatal("previous plan mutated by the next solve")
	}
}

// TestHorizonSessionSteadyStateAllocs bounds the steady-state allocation
// cost of a session solve: the QP itself is allocation-free and the plan
// arenas are double-buffered, so nothing should allocate.
func TestHorizonSessionSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector bookkeeping allocates nondeterministically")
	}
	const l, v, w = 3, 5, 4
	inst := sessionTestInstance(t, l, v)
	ses, err := inst.NewHorizonSession(w, qp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := sessionTestInput(inst, l, v, w)
	for i := 0; i < 3; i++ {
		p, err := ses.Solve(input)
		if err != nil {
			t.Fatal(err)
		}
		input.Warm, input.WarmShift = p.Warm, 0
	}
	allocs := testing.AllocsPerRun(20, func() {
		p, err := ses.Solve(input)
		if err != nil {
			t.Fatal(err)
		}
		input.Warm, input.WarmShift = p.Warm, 0
	})
	if allocs > 0 {
		t.Fatalf("steady-state session solve allocates %v times", allocs)
	}
}

// TestTotalCapacityDualsInto checks the in-place dual accumulator against
// its allocating sibling.
func TestTotalCapacityDualsInto(t *testing.T) {
	const l, v, w = 3, 5, 4
	inst := sessionTestInstance(t, l, v)
	input := sessionTestInput(inst, l, v, w)
	plan, err := solveOnce(inst, input, qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.TotalCapacityDuals()
	dst := make([]float64, l)
	for i := range dst {
		dst[i] = math.NaN() // must be fully overwritten
	}
	plan.TotalCapacityDualsInto(dst)
	for i := range want {
		if want[i] != dst[i] {
			t.Fatalf("dual %d: %v != %v", i, want[i], dst[i])
		}
	}
}

// TestWarmStateTimeMajorRoundTrip pins the checkpoint layout: a capsule
// exports its primal time-major (Y[t·pairs + pair]) whatever the QP's
// column order, and a capsule imported from that form seeds every shift
// with exactly the warm start the original capsule gives.
func TestWarmStateTimeMajorRoundTrip(t *testing.T) {
	const l, v, w = 3, 5, 4
	inst := sessionTestInstance(t, l, v)
	plan, err := solveOnce(inst, sessionTestInput(inst, l, v, w), qp.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := inst.horizonStructure(w, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs.linking) == 0 {
		t.Fatal("test instance has no linking rows: the block layout equals the time-major one")
	}
	ws := plan.Warm.Export()
	e := inst.NumPairs()
	for pi := 0; pi < e; pi++ {
		for tt := 0; tt < w; tt++ {
			if ws.Y[tt*e+pi] != plan.Warm.y[hs.col(pi, tt)] {
				t.Fatalf("exported Y[%d·%d+%d] is not pair %d at step %d", tt, e, pi, pi, tt)
			}
		}
	}
	imp := ImportWarm(ws)
	if again := imp.Export(); !slicesEqual(again.Y, ws.Y) || !slicesEqual(again.Z, ws.Z) {
		t.Fatal("export of an imported capsule differs from the checkpoint")
	}
	for shift := 0; shift <= 2; shift++ {
		a := plan.Warm.shifted(hs, shift, &qp.WarmStart{}, &qp.WarmStart{})
		b := imp.shifted(hs, shift, &qp.WarmStart{}, &qp.WarmStart{})
		if !slicesEqual(a.X, b.X) || !slicesEqual(a.Z, b.Z) {
			t.Fatalf("shift %d: imported capsule seeds a different warm start", shift)
		}
	}
}

func slicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
