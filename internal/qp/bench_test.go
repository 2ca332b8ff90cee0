package qp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
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

// BenchmarkSessionResolve measures the marginal cost of a checkpointed
// sensitivity query — restore, sparse bound perturbation, rank-k (or
// exact-reuse) factorization, and the short continuation to convergence —
// against the cold solve the session replaces. cold_ns_per_op carries the
// from-scratch cost of the same problem so BENCH comparisons can quote
// marginal vs cold directly; reuse_rate is the fraction of factorizations
// served by the reuse tiers (exact skip + rank-k update) over the run.
func BenchmarkSessionResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	p := bandedSparseQP(rng, 150, 4)
	// Cold baseline: fresh solves of the same problem, timed by hand
	// (testing.Benchmark cannot be nested inside a running benchmark — it
	// blocks on the testing package's benchmark lock).
	const coldIters = 20
	if _, err := Solve(p, DefaultOptions()); err != nil { // warm caches
		b.Fatal(err)
	}
	t0 := time.Now()
	for i := 0; i < coldIters; i++ {
		if _, err := Solve(p, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	coldNs := float64(time.Since(t0).Nanoseconds()) / coldIters
	ses, err := NewSessionOpts(p, DefaultOptions(), SessionOptions{RankK: true})
	if err != nil {
		b.Fatal(err)
	}
	base, err := ses.Solve(nil)
	if err != nil {
		b.Fatal(err)
	}
	// Perturb the most active constraint so every query genuinely
	// iterates (an inactive bound converges on the spot, exercising
	// nothing).
	active := 0
	for i, z := range base.IneqDuals {
		if z > base.IneqDuals[active] {
			active = i
		}
	}
	rows := []int{active}
	deltas := []float64{0}
	b.ReportAllocs()
	b.ResetTimer()
	// Each op is one checkpoint-and-query cycle: Checkpoint re-arms the
	// standing factorization (an exact-reuse hit when the weights are
	// unchanged since convergence), and the query's first factorization
	// is then a rank-k update against it.
	for i := 0; i < b.N; i++ {
		if err := ses.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		deltas[0] = -1e-3 * float64(1+i%5)
		if _, err := ses.ResolvePerturbedCtx(nil, rows, deltas); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := ses.Stats()
	total := st.Factorizations + st.Reused + st.RankKUpdates
	b.ReportMetric(coldNs, "cold_ns_per_op")
	b.ReportMetric(float64(st.Reused+st.RankKUpdates)/float64(total), "reuse_rate")
}
