package qp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dspp/internal/linalg"
)

// TestSolutionMatchesBruteForceX cross-checks the predictor–corrector
// solution vector (not just the objective) against the active-set brute
// force on randomized strictly convex problems: strict convexity makes the
// minimizer unique, so the two independent methods must agree within the
// solver tolerance.
func TestSolutionMatchesBruteForceX(t *testing.T) {
	rng := rand.New(rand.NewSource(90125))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(5)
		p := randomFeasibleQP(rng, n, m)
		res, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bestX, _, ok := bruteForceQP(p)
		if !ok {
			continue
		}
		checked++
		for i := range res.X {
			if d := math.Abs(res.X[i] - bestX[i]); d > 1e-6*(1+math.Abs(bestX[i])) {
				t.Errorf("trial %d: x[%d] = %.12g, brute force %.12g (Δ=%.3g)",
					trial, i, res.X[i], bestX[i], d)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d/40 trials produced a brute-force reference", checked)
	}
}

// TestCorpusSolutionsIndependentOfWarmStart runs the randomized corpus
// twice — cold and warm-started from the cold solution — and demands the
// two solves land on the same point within 1e-6. The warm path exercises
// the predictor-corrector's skip-corrector and adaptive step-length
// branches that cold solves rarely reach.
func TestCorpusSolutionsIndependentOfWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(10)
		m := 1 + rng.Intn(2*n)
		p := randomFeasibleQP(rng, n, m)
		cold, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		warm, err := solveOnce(p, DefaultOptions(), &WarmStart{X: cold.X, Z: cold.IneqDuals})
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if warm.Iterations > cold.Iterations {
			t.Errorf("trial %d: warm solve took %d iters vs cold %d",
				trial, warm.Iterations, cold.Iterations)
		}
		for i := range cold.X {
			if d := math.Abs(cold.X[i] - warm.X[i]); d > 1e-6*(1+math.Abs(cold.X[i])) {
				t.Errorf("trial %d: warm x[%d] = %.12g vs cold %.12g",
					trial, i, warm.X[i], cold.X[i])
			}
		}
	}
}

// TestPoisonedWarmStartRefused pins the finiteness half of the warm-start
// admission rule: a warm start holding NaN or ±Inf is refused before the
// first iteration, so the solve succeeds and is the cold solve, bit for
// bit.
func TestPoisonedWarmStartRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := randomFeasibleQP(rng, 6, 12)
	cold, err := solveOnce(p, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cold = cloneResult(cold)
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		nanX := &WarmStart{X: linalg.NewVector(6), Z: linalg.NewVector(12)}
		for i := range nanX.X {
			nanX.X[i] = poison
		}
		nanX.Z.Fill(0.1)
		oneZ := &WarmStart{X: cold.X.Clone(), Z: cold.IneqDuals.Clone()}
		oneZ.Z[3] = poison
		for _, warm := range []*WarmStart{nanX, oneZ} {
			res, err := solveOnce(p, DefaultOptions(), warm)
			if err != nil {
				t.Fatalf("poisoned warm start (%v): %v", poison, err)
			}
			requireSameResult(t, fmt.Sprintf("poison %v", poison), res, cold)
		}
	}
}

// TestWarmStartAdmissionBound pins the gap half of the admission rule on
// both sides of the bound: with x at the optimum and every dual equal to
// c, the seated gap is c·Σs, so c at half the admission scale's share is
// admitted and c at twice it is refused.
func TestWarmStartAdmissionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randomFeasibleQP(rng, 8, 16)
	ses, err := NewSession(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ses.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := ses.st
	warm := &WarmStart{X: opt.X.Clone(), Z: linalg.NewVector(st.m)}
	// Seat x with duals small enough to be admitted, to read its slacks.
	warm.Z.Fill(1e-3)
	if ok, _ := st.initPoint(warm); !ok {
		t.Fatal("near-zero duals at the optimum refused")
	}
	var slackSum, bound float64
	for i := 0; i < st.m; i++ {
		slackSum += st.s[i]
		bound += math.Max(p.H[i], 1)
	}
	for _, tc := range []struct {
		scale float64
		admit bool
	}{{0.5, true}, {2, false}} {
		warm.Z.Fill(tc.scale * bound / slackSum)
		if got, _ := st.initPoint(warm); got != tc.admit {
			t.Errorf("duals at %v× the admission scale's share: admitted %v, want %v", tc.scale, got, tc.admit)
		}
	}
}

// TestAllocsIndependentOfIterationCount proves the zero-allocation
// property of the iteration loop: on a session, a solve that runs ~3×
// more interior-point iterations allocates exactly as little as a short
// one — nothing — because all per-iteration storage (KKT band,
// factorization, residuals, directions, the result arena) is sized once
// by NewSession.
func TestAllocsIndependentOfIterationCount(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector bookkeeping allocates nondeterministically; exact counts are checked by the non-race run and the check.sh bench guard")
	}
	rng := rand.New(rand.NewSource(77))
	p := randomFeasibleQP(rng, 30, 60)
	loose := DefaultOptions()
	loose.Tolerance = 1e-2
	tight := DefaultOptions()
	tight.Tolerance = 1e-11

	sesLoose, err := NewSession(p, loose)
	if err != nil {
		t.Fatal(err)
	}
	sesTight, err := NewSession(p, tight)
	if err != nil {
		t.Fatal(err)
	}
	resLoose, err := sesLoose.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	resTight, err := sesTight.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if resTight.Iterations < resLoose.Iterations+3 {
		t.Skipf("iteration spread too small to discriminate (%d vs %d)",
			resLoose.Iterations, resTight.Iterations)
	}

	allocsLoose := testing.AllocsPerRun(50, func() {
		if _, err := sesLoose.Solve(nil); err != nil {
			t.Fatal(err)
		}
	})
	allocsTight := testing.AllocsPerRun(50, func() {
		if _, err := sesTight.Solve(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocsLoose != 0 || allocsTight != 0 {
		t.Errorf("session solves allocate: %v allocs at %d iters, %v at %d",
			allocsTight, resTight.Iterations, allocsLoose, resLoose.Iterations)
	}
}
