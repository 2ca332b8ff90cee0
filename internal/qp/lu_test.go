package qp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dspp/internal/linalg"
)

// errSingular is returned by luSolve when the matrix is numerically
// singular.
var errSingular = errors.New("matrix is singular")

// luSolve solves A x = b by LU factorization with partial pivoting
// (P·A = L·U). The solver never uses it: equalityQP solves the indefinite
// reference KKT systems of the brute-force active-set test with it. The
// input is not modified.
func luSolve(a *linalg.Matrix, b linalg.Vector) (linalg.Vector, error) {
	n := a.Rows()
	if a.Cols() != n || len(b) != n {
		return nil, fmt.Errorf("lu of (%dx%d), b=%d: %w", a.Rows(), a.Cols(), len(b), linalg.ErrDimensionMismatch)
	}
	m := make([]float64, n*n)
	piv := make([]int, n)
	for i := 0; i < n; i++ {
		piv[i] = i
		for j := 0; j < n; j++ {
			m[i*n+j] = a.At(i, j)
		}
	}
	for k := 0; k < n; k++ {
		// Pivot search.
		p, pmax := k, math.Abs(m[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m[i*n+k]); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax == 0 || math.IsNaN(pmax) {
			return nil, fmt.Errorf("column %d: %w", k, errSingular)
		}
		if p != k {
			rk := m[k*n : (k+1)*n]
			rp := m[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := m[k*n+k]
		for i := k + 1; i < n; i++ {
			l := m[i*n+k] / pivVal
			m[i*n+k] = l
			if l == 0 {
				continue
			}
			ri := m[i*n:]
			rk := m[k*n:]
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	x := linalg.NewVector(n)
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	// Forward: L y = Pb (unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		ri := m[i*n:]
		for k := 0; k < i; k++ {
			s -= ri[k] * x[k]
		}
		x[i] = s
	}
	// Back: U x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		ri := m[i*n:]
		for k := i + 1; k < n; k++ {
			s -= ri[k] * x[k]
		}
		x[i] = s / ri[i]
	}
	return x, nil
}

// luResidual is ‖A x − b‖∞.
func luResidual(a *linalg.Matrix, x, b linalg.Vector) float64 {
	ax := linalg.NewVector(len(b))
	if err := a.MulVec(x, ax); err != nil {
		return math.Inf(1)
	}
	if err := ax.AXPY(-1, b); err != nil {
		return math.Inf(1)
	}
	return ax.NormInf()
}

// dominantMatrix draws an n×n normal matrix and adds boost to its
// diagonal, which keeps it comfortably nonsingular.
func dominantMatrix(rng *rand.Rand, n int, boost float64) *linalg.Matrix {
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Inc(i, i, boost)
	}
	return a
}

func TestLUSolveKnown(t *testing.T) {
	a := mustMatrix(t, [][]float64{
		{0, 2, 1}, // zero pivot forces a row swap
		{1, 1, 1},
		{2, 0, 3},
	})
	b := vectorOf(4, 3, 7)
	x, err := luSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := luResidual(a, x, b); r > 1e-10 {
		t.Errorf("residual = %g", r)
	}
}

func TestLUSingular(t *testing.T) {
	a := mustMatrix(t, [][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := luSolve(a, vectorOf(1, 2)); !errors.Is(err, errSingular) {
		t.Errorf("singular err = %v", err)
	}
	if _, err := luSolve(linalg.NewMatrix(2, 3), vectorOf(1, 2)); !errors.Is(err, linalg.ErrDimensionMismatch) {
		t.Errorf("non-square err = %v", err)
	}
}

func TestLURandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 3, 10, 40} {
		a := dominantMatrix(rng, n, float64(n))
		b := linalg.NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := luSolve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := luResidual(a, x, b); r > 1e-8 {
			t.Errorf("n=%d residual = %g", n, r)
		}
	}
}

// Property: an LU solve of a random diagonally dominant system of random
// size reproduces its right-hand side.
func TestQuickLUSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := dominantMatrix(rng, n, float64(2*n))
		b := linalg.NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := luSolve(a, b)
		return err == nil && luResidual(a, x, b) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Error(err)
	}
}
