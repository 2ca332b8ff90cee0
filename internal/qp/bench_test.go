package qp

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSolve measures interior-point solve time as the problem grows:
// the per-MPC-step cost that dominates the controller's runtime.
func BenchmarkSolve(b *testing.B) {
	for _, size := range []struct{ n, m int }{
		{10, 20}, {50, 100}, {150, 300}, {300, 600},
	} {
		rng := rand.New(rand.NewSource(42))
		p := randomFeasibleQP(rng, size.n, size.m)
		b.Run(fmt.Sprintf("n%d_m%d", size.n, size.m), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := Solve(p, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "ipm_iters")
		})
	}
}

// BenchmarkSolveWarm measures the warm-started predictor-corrector solve —
// the shape every MPC step and best-response round after the first takes.
// With the symbolic/numeric factorization split and pooled iteration state,
// allocs/op must stay a small constant independent of the iteration count
// (see TestAllocsIndependentOfIterationCount for the hard assertion); the
// reported ipm_iters shows how few iterations the warm path needs. The
// block-angular case has the paper instance's shape — 8 location blocks
// of 4 pairs over 2 steps, coupled by 4 capacity rows — and runs the
// linking-row Schur path under the same allocation contract.
func BenchmarkSolveWarm(b *testing.B) {
	type bench struct {
		name string
		p    func(*rand.Rand) *Problem
	}
	var cases []bench
	for _, size := range []struct{ n, m int }{
		{10, 20}, {50, 100}, {150, 300},
	} {
		cases = append(cases, bench{fmt.Sprintf("n%d_m%d", size.n, size.m), func(rng *rand.Rand) *Problem {
			return randomFeasibleQP(rng, size.n, size.m)
		}})
	}
	cases = append(cases, bench{"blocks8x8_link4", func(rng *rand.Rand) *Problem {
		return blockAngularQP(rng, 8, 8, 4)
	}})
	for _, c := range cases {
		p := c.p(rand.New(rand.NewSource(42)))
		cold, err := Solve(p, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		warm := &WarmStart{X: cold.X, Z: cold.IneqDuals}
		b.Run(c.name, func(b *testing.B) {
			// Prime the solver-state pool from this goroutine: the pool is
			// per-P, and a run scheduled on another P than the cold solve
			// above would otherwise count one state's growth against a
			// 10-iteration run.
			if _, err := SolveWarm(p, DefaultOptions(), warm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := SolveWarm(p, DefaultOptions(), warm)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "ipm_iters")
		})
	}
}

// BenchmarkSolveEqualityOnly measures the direct KKT path (no
// inequalities), the fast path used by the LQ cross-checks.
func BenchmarkSolveEqualityOnly(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 100
	p := randomFeasibleQP(rng, n, 1)
	p.G, p.H = nil, nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
