package qp

import (
	"fmt"
	"math/rand"
	"testing"

	"dspp/internal/linalg"
)

// driftH nudges every bound by a small deterministic amount, the shape of
// capacity drift between best-response rounds.
func driftH(rng *rand.Rand, h linalg.Vector) {
	for i := range h {
		h[i] += rng.NormFloat64() * 0.01
		if h[i] < 0.5 {
			h[i] = 0.5
		}
	}
}

// TestSessionBitIdenticalToOneShot drives one reused session and, on an
// identical twin problem, a fresh one-use session per round through the
// same sequence of drifting problems with chained warm starts, and
// demands bitwise agreement on every field of every result: the session's
// state reuse and arena-backed results must not move a single ulp.
func TestSessionBitIdenticalToOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(8)
		m := 2 + rng.Intn(2*n)
		base := randomFeasibleQP(rng, n, m)

		pSes := &Problem{Q: base.Q, C: base.C.Clone(), G: base.G, H: base.H.Clone()}
		pOne := &Problem{Q: base.Q, C: base.C.Clone(), G: base.G, H: base.H.Clone()}
		ses, err := NewSession(pSes, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}

		var warmSes, warmOne *WarmStart
		drift := rand.New(rand.NewSource(int64(trial)))
		for round := 0; round < 6; round++ {
			if round > 0 {
				save := drift.Int63()
				driftH(rand.New(rand.NewSource(save)), pSes.H)
				driftH(rand.New(rand.NewSource(save)), pOne.H)
			}
			rSes, errSes := ses.Solve(warmSes)
			rOne, errOne := solveOnce(pOne, DefaultOptions(), warmOne)
			if (errSes == nil) != (errOne == nil) {
				t.Fatalf("trial %d round %d: reused session err %v, fresh session err %v", trial, round, errSes, errOne)
			}
			if errSes != nil {
				break
			}
			requireSameResult(t, fmt.Sprintf("trial %d round %d", trial, round), rSes, rOne)
			warmSes = &WarmStart{X: rSes.X, Z: rSes.IneqDuals}
			warmOne = &WarmStart{X: rOne.X, Z: rOne.IneqDuals}
		}
	}
}

// TestSessionResultDoubleBuffered pins the arena lifetime contract: a
// result stays intact through the next solve (it is the next warm start),
// and only the solve after that may overwrite its storage.
func TestSessionResultDoubleBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomFeasibleQP(rng, 6, 10)
	ses, err := NewSession(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ses.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	x1 := append([]float64(nil), r1.X...)
	p.H[0] += 0.25
	if _, err := ses.Solve(&WarmStart{X: r1.X, Z: r1.IneqDuals}); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if r1.X[i] != x1[i] {
			t.Fatalf("result clobbered by the very next solve at x[%d]", i)
		}
	}
}

// TestSessionRefusedWarmStartKeepsPreviousResult pins what a warm start
// far off the central path costs: nothing. It is refused before the
// first iteration, so under a cap both cold solves meet (and the capsule
// would not) the solve succeeds, bitwise equal to the cold solve, and the
// result before it — which the caller still holds — stays intact.
func TestSessionRefusedWarmStartKeepsPreviousResult(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomFeasibleQP(rng, 6, 10)
	h1 := p.H.Clone()
	h2 := p.H.Clone()
	h2[0] += 0.25
	opts := DefaultOptions()
	capIters := 0
	var cold2 *Result
	for _, h := range []linalg.Vector{h1, h2} {
		copy(p.H, h)
		r, err := solveOnce(p, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		capIters = max(capIters, r.Iterations+2)
		cold2 = cloneResult(r)
	}
	opts.MaxIterations = capIters
	ses, err := NewSession(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	copy(p.H, h1)
	r1, err := ses.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	want1 := cloneResult(r1)
	copy(p.H, h2)
	bad := &WarmStart{X: r1.X.Clone(), Z: r1.IneqDuals.Clone()}
	bad.X.Scale(1e5)
	bad.Z.Scale(1e10)
	r2, err := ses.Solve(bad)
	if err != nil {
		t.Fatalf("refused warm start: %v", err)
	}
	requireSameResult(t, "refused warm solve vs cold", r2, cold2)
	requireSameResult(t, "previous result", r1, want1)
}

// cloneResult deep-copies a session result out of the arena.
func cloneResult(r *Result) *Result {
	c := *r
	c.X, c.IneqDuals = r.X.Clone(), r.IneqDuals.Clone()
	return &c
}

// requireSameResult fails unless got and want agree bitwise on every
// field.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Objective != want.Objective || got.Iterations != want.Iterations || got.Gap != want.Gap ||
		got.PrimalRes != want.PrimalRes || got.DualRes != want.DualRes || got.Loose != want.Loose {
		t.Fatalf("%s: scalars differ: %+v vs %+v", label, got, want)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("%s: x[%d] %v != %v", label, i, got.X[i], want.X[i])
		}
	}
	for i := range want.IneqDuals {
		if got.IneqDuals[i] != want.IneqDuals[i] {
			t.Fatalf("%s: z[%d] %v != %v", label, i, got.IneqDuals[i], want.IneqDuals[i])
		}
	}
}

// bandedSparseQP builds a strictly convex QP with a banded sparse G (row
// i covers columns [i, i+bw]), so its KKT matrix is banded. Q is a band
// matrix declaring the KKT band bw.
func bandedSparseQP(rng *rand.Rand, n, bw int) *Problem {
	q := linalg.NewBandMatrix(n, bw)
	for i := 0; i < n; i++ {
		_ = q.Set(i, i, 0.5+rng.Float64()*2)
	}
	c := linalg.NewVector(n)
	for i := range c {
		c[i] = rng.NormFloat64() * 2
	}
	b := linalg.NewSparseBuilder(n, n, n*(bw+1))
	h := linalg.NewVector(n)
	for i := 0; i < n; i++ {
		b.StartRow()
		hi := i + bw
		if hi > n-1 {
			hi = n - 1
		}
		for j := i; j <= hi; j++ {
			b.Add(j, rng.NormFloat64())
		}
		h[i] = 1 + rng.Float64()*3
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return &Problem{Q: q, C: c, G: g, H: h}
}

// TestSessionSteadyStateZeroAllocs proves the arena claim: once warm, a
// session solve allocates nothing at all — no state, no result storage,
// no telemetry.
func TestSessionSteadyStateZeroAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector bookkeeping allocates nondeterministically")
	}
	rng := rand.New(rand.NewSource(5))
	p := bandedSparseQP(rng, 40, 3)
	ses, err := NewSession(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	warm := &WarmStart{}
	for i := 0; i < 3; i++ {
		res, err := ses.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		warm.X, warm.Z = res.X, res.IneqDuals
	}
	allocs := testing.AllocsPerRun(20, func() {
		res, err := ses.Solve(warm)
		if err != nil {
			t.Fatal(err)
		}
		warm.X, warm.Z = res.X, res.IneqDuals
	})
	if allocs != 0 {
		t.Fatalf("steady-state session solve allocates %v times", allocs)
	}
}
