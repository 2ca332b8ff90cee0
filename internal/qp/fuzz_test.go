package qp

import (
	"errors"
	"math"
	"testing"

	"dspp/internal/linalg"
)

// FuzzSolve hammers the solver entry with arbitrary two-variable problems:
// every outcome must be a finite iterate or a wrapped package sentinel —
// never a panic and never a silently non-finite "solution".
func FuzzSolve(f *testing.F) {
	f.Add(1.0, 0.0, 1.0, -1.0, -2.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.5)
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 0.0)
	f.Add(1.0, 2.0, 1.0, 0.0, 0.0, 1.0, 0.0, -1.0, -1.0, 0.0, -2.0)
	f.Add(math.NaN(), 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0)
	f.Add(1e18, 0.0, 1e-18, 1.0, -1.0, 1.0, 1.0, 1e18, -1.0, 1.0, -1e18)
	f.Fuzz(func(t *testing.T, q00, q01, q11, c0, c1, g00, g01, h0, g10, g11, h1 float64) {
		p := denseQP(t, [][]float64{{q00, q01}, {q01, q11}}, linalg.VectorOf(c0, c1),
			[][]float64{{g00, g01}, {g10, g11}}, linalg.VectorOf(h0, h1))
		res, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			if !errors.Is(err, ErrBadProblem) && !errors.Is(err, ErrNumerical) &&
				!errors.Is(err, ErrMaxIterations) {
				t.Fatalf("unwrapped error %v", err)
			}
			// ErrMaxIterations documents a best-effort iterate alongside
			// the error; the other sentinels must not fabricate one.
			if res != nil && !errors.Is(err, ErrMaxIterations) {
				t.Fatalf("error %v came with a result", err)
			}
			return
		}
		for i, x := range res.X {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("x[%d] = %g on a clean return", i, x)
			}
		}
	})
}
