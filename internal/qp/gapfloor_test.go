package qp

import (
	"math"
	"math/rand"
	"testing"
)

// TestGapFloorHoldsUntilResidualsConverge: a horizon-shaped QP with
// linking capacity rows, its costs nudged by 1e-4 relative and warm-started
// from the old optimum, starts nearly complementary with its dual
// residual unconverged, so the affine step would take μ below the gap
// floor. The floor must raise σ while rd is still unconverged, every
// iterate through the returned one must keep μ at the floor (to 0.1%: the
// corrector aims at it, rounding and the objective's move settle the
// rest), and the solve must converge, not loose, to the cold optimum.
// Without the floor the last step drops μ to 0.3–91% of it. Each time the
// floor fires, the cached residual norms the test reads must be the
// ∞-norms of rd and rp themselves.
func TestGapFloorHoldsUntilResidualsConverge(t *testing.T) {
	opts := DefaultOptions()
	opts.Tolerance = 1e-10
	tol := opts.Tolerance
	var fires, rdOpen int
	floorHook = func(st *ipmState) {
		fires++
		if rd, rp := st.rd[:st.n].NormInf(), st.rp[:st.m].NormInf(); st.rdNorm != rd || st.rpNorm != rp {
			t.Fatalf("cached norms rd %g rp %g, vectors rd %g rp %g", st.rdNorm, st.rpNorm, rd, rp)
		}
		if st.rdNorm >= tol*(1+st.cNorm)*(1+math.Abs(st.obj)) {
			rdOpen++
		}
	}
	defer func() { floorHook = nil }()
	for seed := int64(1); seed <= 8; seed++ {
		p := horizonShapedQP(rand.New(rand.NewSource(seed)), 4, 12, 2)
		if len(p.Linking) == 0 {
			t.Fatalf("seed %d: no linking rows", seed)
		}
		old, err := solveOnce(p, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 7))
		for i := range p.C {
			p.C[i] *= 1 + 1e-4*rng.NormFloat64()
		}
		warm := &WarmStart{X: old.X, Z: old.IneqDuals}
		fires, rdOpen = 0, 0
		got, err := solveOnce(p, opts, warm)
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		if got.Loose {
			t.Fatalf("seed %d: warm solve accepted loose", seed)
		}
		if fires == 0 || rdOpen == 0 {
			t.Fatalf("seed %d: floor raised σ %d times, %d with rd unconverged; want both > 0", seed, fires, rdOpen)
		}
		// The iterate after k iterations is the result of the same solve
		// capped at k.
		for k := 1; k <= got.Iterations; k++ {
			capped := opts
			capped.MaxIterations = k
			r, _ := solveOnce(p, capped, warm)
			if floor := muFloor * tol * (1 + math.Abs(r.Objective)); r.Gap < 0.999*floor {
				t.Fatalf("seed %d iteration %d: μ = %.3g below the floor %.3g (rd %.3g, rp %.3g)",
					seed, k, r.Gap, floor, r.DualRes, r.PrimalRes)
			}
		}
		want, err := solveOnce(p, opts, nil)
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		if d := math.Abs(got.Objective - want.Objective); d > 1e-8*(1+math.Abs(want.Objective)) {
			t.Fatalf("seed %d: objective %.15g, cold %.15g", seed, got.Objective, want.Objective)
		}
	}
}
