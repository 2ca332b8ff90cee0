package linalg

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD builds a random symmetric positive-definite matrix A = BᵀB + εI.
func randSPD(rng *rand.Rand, n int) *Matrix {
	b := randMatrix(rng, n, n)
	w := NewVector(n)
	w.Fill(1)
	a := NewMatrix(n, n)
	if err := b.AtATWeighted(w, a); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		a.Inc(i, i, 0.5)
	}
	return a
}

func residual(a *Matrix, x, b Vector) float64 {
	ax := NewVector(len(b))
	a.mulVec(x, ax)
	Axpy(-1, b, ax)
	return ax.NormInf()
}

func TestCholeskySolveKnown(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{
		{4, 2, 0},
		{2, 5, 1},
		{0, 1, 3},
	})
	b := VectorOf(2, 4, 1)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := NewVector(3)
	if err := c.Solve(b, x); err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-10 {
		t.Errorf("residual = %g", r)
	}
}

func TestCholeskyRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := randSPD(rng, n)
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveSPD(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := residual(a, x, b); r > 1e-8 {
			t.Errorf("n=%d residual = %g", n, r)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{
		{1, 2},
		{2, 1}, // eigenvalues 3, -1
	})
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("indefinite err = %v", err)
	}
	if _, err := NewCholesky(NewMatrix(2, 3)); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("non-square err = %v", err)
	}
}

func TestCholeskySolveInPlaceAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSPD(rng, 6)
	b := NewVector(6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := VectorOf(b...)
	if err := c.Solve(x, x); err != nil { // aliased solve
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("aliased residual = %g", r)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: y = 2 + 3t.
	a, _ := MatrixFromRows([][]float64{
		{1, 0},
		{1, 1},
		{1, 2},
		{1, 3},
	})
	b := VectorOf(2, 5, 8, 11)
	x, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 2, 1e-8) || !almostEqual(x[1], 3, 1e-8) {
		t.Errorf("LeastSquares = %v, want [2 3]", x)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := NewMatrix(3, 2)
	if _, err := LeastSquares(a, VectorOf(1, 2), 0); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
	if _, err := LeastSquares(a, VectorOf(1, 2, 3), -1); err == nil {
		t.Error("negative ridge accepted")
	}
}

// Property: Cholesky solve then multiply is the identity map, for random
// SPD systems of random size.
func TestQuickCholeskyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randSPD(rng, n)
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		return residual(a, x, b) < 1e-7
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
