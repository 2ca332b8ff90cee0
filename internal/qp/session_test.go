package qp

import (
	"math"
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

// TestSessionBitIdenticalToOneShot drives a session and the pooled
// one-shot path through the same sequence of drifting problems with
// chained warm starts, and demands bitwise agreement on every field of
// every result: the session's state reuse, shared symbolic analysis, and
// arena-backed results must not move a single ulp.
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
			rOne, errOne := SolveWarm(pOne, DefaultOptions(), warmOne)
			if (errSes == nil) != (errOne == nil) {
				t.Fatalf("trial %d round %d: session err %v, one-shot err %v", trial, round, errSes, errOne)
			}
			if errSes != nil {
				break
			}
			if rSes.Objective != rOne.Objective || rSes.Iterations != rOne.Iterations ||
				rSes.Gap != rOne.Gap || rSes.PrimalRes != rOne.PrimalRes || rSes.DualRes != rOne.DualRes {
				t.Fatalf("trial %d round %d: scalar drift: %+v vs %+v", trial, round, rSes, rOne)
			}
			for i := range rSes.X {
				if rSes.X[i] != rOne.X[i] {
					t.Fatalf("trial %d round %d: x[%d] %v != %v", trial, round, i, rSes.X[i], rOne.X[i])
				}
			}
			for i := range rSes.IneqDuals {
				if rSes.IneqDuals[i] != rOne.IneqDuals[i] {
					t.Fatalf("trial %d round %d: z[%d] %v != %v", trial, round, i, rSes.IneqDuals[i], rOne.IneqDuals[i])
				}
			}
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

// bandedSparseQP builds a strictly convex QP with a banded sparse G (row
// i covers columns [i, i+bw]), the structure whose KKT factorization the
// rank-k update tier can advance in place. Q is a band matrix declaring
// the KKT band bw.
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

// TestSessionCheckpointQueries exercises the hot-continuation path end to
// end: a checkpointed session answers bound-perturbation queries through
// the rank-k update tier, each query's optimum agreeing with a from-scratch
// solve of the perturbed problem; repeating a query hits the exact-reuse
// tier; and re-checkpointing (weights unchanged) is an exact reuse too.
func TestSessionCheckpointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	n, bw := 80, 4
	p := bandedSparseQP(rng, n, bw)
	ses, err := NewSessionOpts(p, DefaultOptions(), SessionOptions{RankK: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ses.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Perturbing an inactive bound moves nothing (the query converges on
	// the spot, factorization-free); pick the most active constraint so
	// every query genuinely iterates.
	active := 0
	for i, z := range base.IneqDuals {
		if z > base.IneqDuals[active] {
			active = i
		}
	}
	if err := ses.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ses.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := ses.Stats().Reused; got < 1 {
		t.Fatalf("re-checkpoint with unchanged weights should hit the exact-reuse tier, reused=%d", got)
	}

	rows := []int{active}
	for trial := 0; trial < 5; trial++ {
		delta := []float64{-0.05 * float64(trial+1)}
		got, err := ses.ResolvePerturbedCtx(nil, rows, delta)
		if err != nil {
			t.Fatalf("query %d: %v", trial, err)
		}
		// Reference: an independent cold solve of the perturbed problem.
		ph := p.H.Clone()
		// The session restored p.H to the checkpoint before perturbing.
		ref := &Problem{Q: p.Q, C: p.C, G: p.G, H: ph}
		want, err := Solve(ref, DefaultOptions())
		if err != nil {
			t.Fatalf("query %d reference: %v", trial, err)
		}
		for i := range got.X {
			if d := math.Abs(got.X[i] - want.X[i]); d > 1e-5*(1+math.Abs(want.X[i])) {
				t.Fatalf("query %d: x[%d] %v vs reference %v", trial, i, got.X[i], want.X[i])
			}
		}
	}
	st := ses.Stats()
	if st.RankKUpdates < 1 {
		t.Fatalf("no query went through the rank-k tier: %+v", st)
	}

	// Identical consecutive queries: the second presents weights bitwise
	// equal to the factor the first left standing, when the first resolved
	// in a single factorization.
	if _, err := ses.ResolvePerturbedCtx(nil, rows, []float64{0.01}); err != nil {
		t.Fatal(err)
	}
	before := ses.Stats()
	r2, err := ses.ResolvePerturbedCtx(nil, rows, []float64{0.01})
	if err != nil {
		t.Fatal(err)
	}
	after := ses.Stats()
	if after.Reused <= before.Reused && after.RankKUpdates <= before.RankKUpdates {
		t.Fatalf("repeated query used neither reuse tier: before %+v after %+v", before, after)
	}
	_ = r2
}

// TestSessionSteadyStateZeroAllocs proves the arena claim: once warm, a
// session solve allocates nothing at all — no pooled state, no result
// storage, no telemetry.
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
