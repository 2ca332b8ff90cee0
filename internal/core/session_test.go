package core

import (
	"fmt"
	"math"
	"slices"
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

// plansBitIdentical requires every value two plans expose to agree bit
// for bit: the scalars, U, X, both dual tables, the shed table and the
// warm capsule's iterates.
func plansBitIdentical(t *testing.T, round int, a, b *Plan) {
	t.Helper()
	label := fmt.Sprintf("round %d", round)
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		a.QPIterations != b.QPIterations || a.Loose != b.Loose || (a.Anytime == nil) != (b.Anytime == nil) {
		t.Fatalf("%s: scalars differ: (%v, %d, %v, %v) vs (%v, %d, %v, %v)", label,
			a.Objective, a.QPIterations, a.Loose, a.Anytime, b.Objective, b.QPIterations, b.Loose, b.Anytime)
	}
	same := func(what string, x, y []float64) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: %s has %d entries, want %d", label, what, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, what, i, x[i], y[i])
			}
		}
	}
	rows := func(what string, x, y [][]float64) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: %s has %d rows, want %d", label, what, len(x), len(y))
		}
		for i := range x {
			same(fmt.Sprintf("%s[%d]", what, i), x[i], y[i])
		}
	}
	for ti := range a.U {
		rows(fmt.Sprintf("U[%d]", ti), a.U[ti], b.U[ti])
		rows(fmt.Sprintf("X[%d]", ti), a.X[ti], b.X[ti])
	}
	rows("DemandDuals", a.DemandDuals, b.DemandDuals)
	rows("CapacityDuals", a.CapacityDuals, b.CapacityDuals)
	rows("Shed", a.Shed, b.Shed)
	if (a.Warm == nil) != (b.Warm == nil) {
		t.Fatalf("%s: warm capsule %v vs %v", label, a.Warm != nil, b.Warm != nil)
	}
	if a.Warm != nil {
		same("Warm.y", a.Warm.y, b.Warm.y)
		same("Warm.z", a.Warm.z, b.Warm.z)
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

// scribble overwrites every value of a plan a caller may rewrite — all
// that projectPlanCapacity mutates and more — with NaN or junk.
func scribble(p *Plan) {
	nan := math.NaN()
	for _, tab := range [][][]float64{p.DemandDuals, p.CapacityDuals, p.Shed} {
		for _, row := range tab {
			for i := range row {
				row[i] = nan
			}
		}
	}
	for t := range p.U {
		for _, s := range []State{p.U[t], p.X[t]} {
			for _, row := range s {
				for i := range row {
					row[i] = nan
				}
			}
		}
	}
	p.Objective, p.QPIterations, p.Loose, p.Anytime = nan, -1, !p.Loose, &qp.AnytimeInfo{}
}

// refillTestInstance builds a 3-DC, 4-location instance with an infeasible
// pair per DC (entries of U and X no control moves) whose capacities are
// scale × (14, 12, 11); with uncap set, DC 2 is uncapacitated, so its
// capacity duals are never written from the QP.
func refillTestInstance(t *testing.T, uncap bool, scale float64) *Instance {
	t.Helper()
	inf := math.Inf(1)
	caps := []float64{14 * scale, 12 * scale, 11 * scale}
	if uncap {
		caps[2] = inf
	}
	inst, err := NewInstance(Config{
		SLA: [][]float64{
			{0.004, 0.005, inf, 0.006},
			{0.005, inf, 0.004, 0.005},
			{0.006, 0.006, 0.005, inf},
		},
		ReconfigWeights: []float64{1e-4, 2e-4, 1e-4},
		Capacities:      caps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestPlansRefilledInPlace pins the in-place plan contract: a session lays
// each of its two plan arenas out once and later solves only write
// values, so NaN scribbled over every value of the session's last two
// plans must not reach the next plans, which stay bit-identical to a
// fresh one-use session's. Hard and soft, W = 1 and W > 1, with and
// without an uncapacitated DC, from a nonzero X0, while the capacities
// drift as in best-response rounds (the hard runs warm-started, as
// there).
func TestPlansRefilledInPlace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		w     int
		soft  bool
		uncap bool
		scale float64
	}{
		{"hard-w1", 1, false, false, 1},
		{"hard-w4", 4, false, false, 1},
		{"hard-w3-uncapacitated", 3, false, true, 1},
		{"soft-w1-shedding", 1, true, false, 0.5},
		{"soft-w4-shedding", 4, true, false, 0.5},
		{"soft-w3-uncapacitated", 3, true, true, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			instSes := refillTestInstance(t, tc.uncap, tc.scale)
			instOne := refillTestInstance(t, tc.uncap, tc.scale)
			ses, err := instSes.newHorizonSession(tc.w, qp.DefaultOptions(), tc.soft)
			if err != nil {
				t.Fatal(err)
			}
			x0 := instSes.NewState()
			for _, pr := range instSes.pairs {
				x0[pr.l][pr.v] = 1 + 0.5*float64(pr.l)
			}
			inputSes := sessionTestInput(instSes, 3, 4, tc.w)
			inputSes.X0 = x0
			inputOne := inputSes
			base, caps := slices.Clone(instSes.capacity), make([]float64, 3)
			var prev *Plan
			shed := false
			for round := 0; round < 6; round++ {
				for l, c := range base {
					caps[l] = c * (1 - 0.03*float64(round%3))
				}
				if err := instSes.SetCapacities(caps); err != nil {
					t.Fatal(err)
				}
				if err := instOne.SetCapacities(caps); err != nil {
					t.Fatal(err)
				}
				pSes, err := ses.Solve(inputSes)
				if err != nil {
					t.Fatalf("round %d: reused session: %v", round, err)
				}
				pOne, err := solveOnce(instOne, inputOne, qp.DefaultOptions(), tc.soft)
				if err != nil {
					t.Fatalf("round %d: fresh session: %v", round, err)
				}
				plansBitIdentical(t, round, pSes, pOne)
				shed = shed || pOne.TotalShed() > 0
				if !tc.soft {
					inputSes.Warm, inputOne.Warm = pSes.Warm, pOne.Warm
				}
				scribble(pSes)
				if prev != nil {
					scribble(prev)
				}
				prev = pSes
			}
			if tc.soft && !tc.uncap && !shed {
				t.Fatal("no round shed demand: the shed table was never written nonzero")
			}
		})
	}
}

// farCapsule returns a copy of hw scaled far off the central path (y by
// 1e5, z by 1e10): its seated gap exceeds the admission scale, so the
// solver refuses it.
func farCapsule(hw *HorizonWarm) *HorizonWarm {
	bad := *hw
	bad.y, bad.z = slices.Clone(hw.y), slices.Clone(hw.z)
	for i := range bad.y {
		bad.y[i] *= 1e5
	}
	for i := range bad.z {
		bad.z[i] *= 1e10
	}
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
	y1, z1 := slices.Clone(p1.Warm.y), slices.Clone(p1.Warm.z)

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

// clonePlan deep-copies the tables plansBitIdentical compares of a hard
// plan; the clone shares the warm capsule, which callers check on its
// own.
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
