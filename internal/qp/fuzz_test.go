package qp

import (
	"errors"
	"math"
	"testing"

	"dspp/internal/telemetry"
)

// FuzzSolve hammers the solver entry with arbitrary two-variable problems
// and an arbitrary two-entry warm start: every outcome must be a finite
// iterate or a wrapped package sentinel — never a panic and never a
// silently non-finite "solution" — and a warm start the solver refuses
// must give exactly the cold solve.
func FuzzSolve(f *testing.F) {
	f.Add(1.0, 0.0, 1.0, -1.0, -2.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.5, 0.25, 0.25)
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 0.0, 0.0, 0.0)
	f.Add(1.0, 2.0, 1.0, 0.0, 0.0, 1.0, 0.0, -1.0, -1.0, 0.0, -2.0, 1.0, -1.0)
	f.Add(math.NaN(), 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0)
	f.Add(1e18, 0.0, 1e-18, 1.0, -1.0, 1.0, 1.0, 1e18, -1.0, 1.0, -1e18, 0.0, 0.0)
	f.Add(1.0, 0.0, 1.0, -1.0, -2.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.5, math.NaN(), 0.0)
	f.Add(1.0, 0.0, 1.0, -1.0, -2.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.5, math.Inf(-1), 1.0)
	f.Add(1.0, 0.0, 1.0, -1.0, -2.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.5, -1e300, 1e300)
	f.Fuzz(func(t *testing.T, q00, q01, q11, c0, c1, g00, g01, h0, g10, g11, h1, w0, w1 float64) {
		p := denseQP(t, [][]float64{{q00, q01}, {q01, q11}}, vectorOf(c0, c1),
			[][]float64{{g00, g01}, {g10, g11}}, vectorOf(h0, h1))
		cold, coldErr := solveOnce(p, DefaultOptions(), nil)
		checkFuzzOutcome(t, cold, coldErr)
		if errors.Is(coldErr, ErrBadProblem) {
			return
		}
		hub := telemetry.New()
		opts := DefaultOptions()
		opts.Hooks = hub.QPHooks()
		res, err := solveOnce(p, opts, &WarmStart{X: vectorOf(w0, w1)})
		checkFuzzOutcome(t, res, err)
		if hub.Registry().Snapshot()[telemetry.MetricQPWarmStarts] != 0 {
			return
		}
		// Refused: the solve must be the cold one, outcome and iterate.
		if (err == nil) != (coldErr == nil) || err != nil && err.Error() != coldErr.Error() {
			t.Fatalf("refused warm start: err %v, cold solve err %v", err, coldErr)
		}
		if (res == nil) != (cold == nil) {
			t.Fatalf("refused warm start: result %v, cold result %v", res, cold)
		}
		if res != nil {
			requireSameResult(t, "refused warm start vs cold", res, cold)
		}
	})
}

// checkFuzzOutcome enforces FuzzSolve's contract on one solve.
func checkFuzzOutcome(t *testing.T, res *Result, err error) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, ErrBadProblem) && !errors.Is(err, ErrNumerical) &&
			!errors.Is(err, ErrMaxIterations) {
			t.Fatalf("unwrapped error %v", err)
		}
		// ErrMaxIterations documents a best-effort iterate alongside the
		// error; the other sentinels must not fabricate one.
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
}
