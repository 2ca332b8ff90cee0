package qp

import (
	"math"
	"math/rand"
	"testing"

	"dspp/internal/linalg"
)

// blockAngularQP builds a strictly convex QP of nb diagonal blocks of bs
// variables: Q couples neighbours inside a block, each block has its own
// constraint rows, and nLink coupling rows each touch one variable in
// every block; the costs push most variables up against the coupling
// rows, so they bind. It returns the problem with a band Q (bandwidth
// bs−1) and the coupling rows declared as linking rows.
func blockAngularQP(rng *rand.Rand, nb, bs, nLink int) *Problem {
	n := nb * bs
	q := linalg.NewBandMatrix(n, bs-1)
	for i := 0; i < n; i++ {
		_ = q.Set(i, i, 1+rng.Float64())
		if i%bs != 0 {
			_ = q.Set(i, i-1, -0.3*rng.Float64())
		}
	}
	c := linalg.NewVector(n)
	for i := range c {
		c[i] = rng.NormFloat64() - 1 // most variables want to grow
	}
	m := nb + nLink + n
	gb := linalg.NewSparseBuilder(m, n, 3*n+nLink*nb)
	h := linalg.NewVector(m)
	var linking []int
	row := 0
	for b := 0; b < nb; b++ { // one block row: a demand-like lower bound
		gb.StartRow()
		for j := 0; j < bs; j++ {
			gb.Add(b*bs+j, -(0.5 + rng.Float64()))
		}
		h[row] = -0.2 - rng.Float64()
		row++
	}
	for k := 0; k < nLink; k++ { // coupling rows: a shared capacity
		gb.StartRow()
		for b := 0; b < nb; b++ {
			gb.Add(b*bs+(k+b)%bs, 1)
		}
		h[row] = 0.4 * float64(nb)
		linking = append(linking, row)
		row++
	}
	for i := 0; i < n; i++ { // nonnegativity
		gb.StartRow()
		gb.Add(i, -1)
		row++
	}
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	return &Problem{Q: q, C: c, G: g, H: h, Linking: linking}
}

// denseReference is p with every row in the band and a dense Q.
func denseReference(p *Problem) *Problem {
	n := p.Q.Rows()
	qd := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qd.Set(i, j, p.Q.At(i, j))
		}
	}
	return &Problem{Q: qd, C: p.C, G: p.G, H: p.H, A: p.A, B: p.B}
}

// assertSameOptimum compares two solves of one problem: objectives to
// objTol relative, primal points to xTol and duals to 10·xTol.
func assertSameOptimum(t *testing.T, label string, got, want *Result, objTol, xTol float64) {
	t.Helper()
	if d := math.Abs(got.Objective - want.Objective); d > objTol*(1+math.Abs(want.Objective)) {
		t.Fatalf("%s: objective %.15g vs %.15g", label, got.Objective, want.Objective)
	}
	for i := range want.X {
		if d := math.Abs(got.X[i] - want.X[i]); d > xTol*(1+math.Abs(want.X[i])) {
			t.Fatalf("%s: x[%d] = %v, want %v", label, i, got.X[i], want.X[i])
		}
	}
	for i := range want.IneqDuals {
		if d := math.Abs(got.IneqDuals[i] - want.IneqDuals[i]); d > 10*xTol*(1+math.Abs(want.IneqDuals[i])) {
			t.Fatalf("%s: z[%d] = %v, want %v", label, i, got.IneqDuals[i], want.IneqDuals[i])
		}
	}
}

// TestLinkingRowsMatchBandSolve solves block-angular QPs through the
// linking-row Schur path and through the same QP with every row in the
// band, with and without equality rows.
func TestLinkingRowsMatchBandSolve(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := blockAngularQP(rng, 3+rng.Intn(5), 2+rng.Intn(4), 1+rng.Intn(3))
		if seed%2 == 0 {
			// An equality row through every block, satisfiable because it
			// holds at the inequality-only optimum.
			free, err := Solve(p, DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			n := p.Q.Rows()
			a := linalg.NewMatrix(1, n)
			var b float64
			for j := 0; j < n; j += 2 {
				a.Set(0, j, 1)
				b += free.X[j]
			}
			p.A, p.B = a, linalg.VectorOf(0.9*b)
		}
		got, err := Solve(p, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d linking: %v", seed, err)
		}
		want, err := Solve(denseReference(p), DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d band: %v", seed, err)
		}
		assertSameOptimum(t, "one-shot", got, want, 1e-8, 1e-5)
	}
}

// TestBandRowTooWideIsRejected: a band row wider than Q's declared band
// fails the factorization instead of corrupting it.
func TestBandRowTooWideIsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := blockAngularQP(rng, 4, 3, 1)
	p.Linking = nil // the coupling row now spans every block
	if _, err := Solve(p, DefaultOptions()); err == nil {
		t.Fatal("solve with a coupling row inside a too-narrow band succeeded")
	}
}

// TestValidateLinking rejects unsorted or out-of-range linking rows.
func TestValidateLinking(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, lk := range [][]int{{3, 2}, {-1}, {1000}, {4, 4}} {
		p := blockAngularQP(rng, 3, 2, 1)
		p.Linking = lk
		if err := p.Validate(); err == nil {
			t.Fatalf("linking %v accepted", lk)
		}
	}
}
