package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// ErrSingular is returned by LU when the matrix is numerically singular.
var ErrSingular = errors.New("linalg: matrix is singular")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ. It factors
// the small dense systems of the Riccati sweep (package lqr) and of
// LeastSquares, and it is the reference the band and envelope
// factorizations are tested against.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle (full square storage)
	// dinv holds 1/L[i][i]: substitution then multiplies instead of
	// dividing on every row of every solve.
	dinv []float64
}

// NewCholesky factorizes the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. The input is not modified.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factorize(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factorize refactorizes c in place for a new matrix, reusing the factor
// buffer when the size matches. On error the factor is invalid until the
// next successful call.
func (c *Cholesky) Factorize(a *Matrix) error {
	if a.Rows() != a.Cols() {
		return fmt.Errorf("cholesky of (%dx%d): %w", a.Rows(), a.Cols(), ErrDimensionMismatch)
	}
	n := a.Rows()
	if c.n != n || len(c.l) != n*n {
		c.n = n
		c.l = make([]float64, n*n)
		c.dinv = make([]float64, n)
	}
	l := c.l
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			li := l[i*n : i*n+j]
			lj := l[j*n : j*n+j]
			for k, lv := range li {
				s -= lv * lj[k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return fmt.Errorf("pivot %d = %g: %w", i, s, ErrNotPositiveDefinite)
				}
				l[i*n+j] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	// The reciprocal diagonal for both substitution passes.
	for i := 0; i < n; i++ {
		c.dinv[i] = 1 / l[i*n+i]
	}
	return nil
}

// Solve solves A x = b using the factorization, writing the result into x.
// x and b may alias.
func (c *Cholesky) Solve(b Vector, x Vector) error {
	n := c.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("cholesky solve b=%d x=%d n=%d: %w", len(b), len(x), n, ErrDimensionMismatch)
	}
	l := c.l
	// Forward substitution: L y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		li := l[i*n : i*n+i]
		xk := x[:i]
		for k, lv := range li {
			s -= lv * xk[k]
		}
		x[i] = s * c.dinv[i]
	}
	// Back substitution: Lᵀ x = y, down column i of l.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s * c.dinv[i]
	}
	return nil
}

// SolveMatrix solves A X = B column by column, returning X.
func (c *Cholesky) SolveMatrix(b *Matrix) (*Matrix, error) {
	if b.Rows() != c.n {
		return nil, fmt.Errorf("cholesky solvematrix rows=%d n=%d: %w", b.Rows(), c.n, ErrDimensionMismatch)
	}
	x := NewMatrix(b.Rows(), b.Cols())
	col := NewVector(c.n)
	out := NewVector(c.n)
	for j := 0; j < b.Cols(); j++ {
		for i := 0; i < b.Rows(); i++ {
			col[i] = b.At(i, j)
		}
		if err := c.Solve(col, out); err != nil {
			return nil, err
		}
		for i := 0; i < b.Rows(); i++ {
			x.Set(i, j, out[i])
		}
	}
	return x, nil
}

// LU holds a row-pivoted LU factorization P·A = L·U. Nothing in the
// solver path uses it; tests solve reference KKT systems with it.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// NewLU factorizes the square matrix a with partial pivoting.
// The input is not modified.
func NewLU(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("lu of (%dx%d): %w", a.Rows(), a.Cols(), ErrDimensionMismatch)
	}
	n := a.Rows()
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
	for i := 0; i < n; i++ {
		f.piv[i] = i
		copy(f.lu[i*n:(i+1)*n], a.Row(i))
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Pivot search.
		p, pmax := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax == 0 || math.IsNaN(pmax) {
			return nil, fmt.Errorf("column %d: %w", k, ErrSingular)
		}
		if p != k {
			rk := lu[k*n : (k+1)*n]
			rp := lu[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivVal := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivVal
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			ri := lu[i*n:]
			rk := lu[k*n:]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return f, nil
}

// Solve solves A x = b, writing the result into x. x and b must not alias.
func (f *LU) Solve(b Vector, x Vector) error {
	n := f.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("lu solve b=%d x=%d n=%d: %w", len(b), len(x), n, ErrDimensionMismatch)
	}
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	lu := f.lu
	// Forward: L y = Pb (unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		ri := lu[i*n:]
		for k := 0; k < i; k++ {
			s -= ri[k] * x[k]
		}
		x[i] = s
	}
	// Back: U x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		ri := lu[i*n:]
		for k := i + 1; k < n; k++ {
			s -= ri[k] * x[k]
		}
		x[i] = s / ri[i]
	}
	return nil
}

// SolveSPD is a convenience that factorizes a (assumed symmetric positive
// definite) and solves a single system A x = b.
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	c, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	x := NewVector(len(b))
	if err := c.Solve(b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// LeastSquares solves min_x ||A x - b||₂ via the normal equations with a
// small Tikhonov ridge for robustness. It is intended for the modest,
// well-conditioned regression problems in the AR predictor.
func LeastSquares(a *Matrix, b Vector, ridge float64) (Vector, error) {
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("lstsq A=(%dx%d) b=%d: %w", a.Rows(), a.Cols(), len(b), ErrDimensionMismatch)
	}
	if ridge < 0 {
		return nil, fmt.Errorf("lstsq: negative ridge %g", ridge)
	}
	n := a.Cols()
	ata := NewMatrix(n, n)
	w := NewVector(a.Rows())
	w.Fill(1)
	if err := a.AtATWeighted(w, ata); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		ata.Inc(i, i, ridge)
	}
	atb := NewVector(n)
	if err := a.MulVecT(b, atb); err != nil {
		return nil, err
	}
	return SolveSPD(ata, atb)
}
