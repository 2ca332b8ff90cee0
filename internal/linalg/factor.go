package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ. It factors
// LeastSquares' normal equations, and it is the reference the band and
// envelope factorizations are tested against.
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
