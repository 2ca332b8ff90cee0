package qp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// BenchmarkSolve measures cold interior-point solve time on a session as
// the problem grows: the per-MPC-step cost that dominates the
// controller's runtime.
func BenchmarkSolve(b *testing.B) {
	for _, size := range []struct{ n, m int }{
		{10, 20}, {50, 100}, {150, 300}, {300, 600},
	} {
		rng := rand.New(rand.NewSource(42))
		p := randomFeasibleQP(rng, size.n, size.m)
		b.Run(fmt.Sprintf("n%d_m%d", size.n, size.m), func(b *testing.B) {
			ses, err := NewSession(p, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := ses.Solve(nil)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "ipm_iters")
		})
	}
}

// BenchmarkSolveWarm measures the warm-started predictor-corrector solve
// on a reused session — the shape every MPC step and best-response round
// after the first takes. The session sizes all its storage once, so a
// solve allocates nothing whatever its iteration count (see
// TestAllocsIndependentOfIterationCount for the hard assertion; check.sh
// requires 0 allocs/op here); the reported ipm_iters shows how few
// iterations the warm path needs. The block-angular case has 8 equal
// location blocks of 8 variables coupled by 4 rows; the daemon-shaped
// case has the dsppd paper instance's mixed widths — 8 location blocks of
// 1–4 pairs over 5 steps, coupled by the capacity rows of 4 DCs — so the
// envelope kernels skip the padding of the narrow blocks. Both run the
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
	}}, bench{"daemon8x1-4_w5_dc4", func(rng *rand.Rand) *Problem {
		return horizonShapedQP(rng, 4, 8, 5)
	}})
	for _, c := range cases {
		p := c.p(rand.New(rand.NewSource(42)))
		ses, err := NewSession(p, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cold, err := ses.Solve(nil)
		if err != nil {
			b.Fatal(err)
		}
		// The arena recycles the cold result's storage two solves on.
		warm := &WarmStart{X: slices.Clone(cold.X), Z: slices.Clone(cold.IneqDuals)}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := ses.Solve(warm)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "ipm_iters")
		})
	}
}
