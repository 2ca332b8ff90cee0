package qp

import (
	"math"
	"math/rand"
	"testing"

	"dspp/internal/linalg"
)

// TestSparseDenseEquivalence solves one QP through both factorizations
// of its KKT system: every row of G in a full (dense) band, and a
// diagonal band with every row of G a linking row, so the rows enter
// through the dense Schur complement instead. Both must land on the same
// primal/dual point to 1e-6 relative.
func TestSparseDenseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(2*n)
		p := randomFeasibleQP(rng, n, m)
		dense, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("trial %d full band: %v", trial, err)
		}
		sp := &Problem{Q: linalg.NewBandMatrix(n, 0), C: p.C, G: p.G, H: p.H}
		for i := 0; i < n; i++ {
			_ = sp.Q.Set(i, i, p.Q.At(i, i))
		}
		for r := 0; r < m; r++ {
			sp.Linking = append(sp.Linking, r)
		}
		sparse, err := solveOnce(sp, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("trial %d linking: %v", trial, err)
		}
		relTol := 1e-6
		if math.Abs(dense.Objective-sparse.Objective) > relTol*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: objectives %g (band) vs %g (linking)", trial, dense.Objective, sparse.Objective)
		}
		for i := range dense.X {
			if math.Abs(dense.X[i]-sparse.X[i]) > relTol*(1+math.Abs(dense.X[i])) {
				t.Fatalf("trial %d: x[%d] %g (band) vs %g (linking)", trial, i, dense.X[i], sparse.X[i])
			}
		}
		for i := range dense.IneqDuals {
			if math.Abs(dense.IneqDuals[i]-sparse.IneqDuals[i]) > 1e-5*(1+math.Abs(dense.IneqDuals[i])) {
				t.Fatalf("trial %d: z[%d] %g (band) vs %g (linking)", trial, i, dense.IneqDuals[i], sparse.IneqDuals[i])
			}
		}
	}
}

// TestWarmStartReducesIterations re-solves a problem from its own
// solution: the warm solve must land on the same optimum in strictly
// fewer interior-point iterations than the cold solve.
func TestWarmStartReducesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	improved := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(8)
		m := 2 + rng.Intn(2*n)
		p := randomFeasibleQP(rng, n, m)
		cold, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		warm, err := solveOnce(p, DefaultOptions(), &WarmStart{X: cold.X, Z: cold.IneqDuals})
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-5*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: warm objective %g drifted from cold %g", trial, warm.Objective, cold.Objective)
		}
		if warm.Iterations > cold.Iterations {
			t.Fatalf("trial %d: warm took %d iterations, cold %d", trial, warm.Iterations, cold.Iterations)
		}
		if warm.Iterations < cold.Iterations {
			improved++
		}
	}
	if improved < trials/2 {
		t.Errorf("warm start beat cold on only %d/%d problems", improved, trials)
	}
}

// TestWarmStartDimensionMismatchIgnored checks that a stale warm start
// with wrong dimensions falls back to the cold start instead of failing.
func TestWarmStartDimensionMismatchIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := randomFeasibleQP(rng, 5, 4)
	cold, err := solveOnce(p, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := solveOnce(p, DefaultOptions(), &WarmStart{X: linalg.NewVector(3), Z: linalg.NewVector(2)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		t.Errorf("mismatched warm start changed the answer: %g vs %g", warm.Objective, cold.Objective)
	}
}
