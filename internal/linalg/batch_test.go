package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func applyRankUpdates(a *BandMatrix, ups []RankUpdate) *BandMatrix {
	out := NewBandMatrix(a.N(), a.Bandwidth())
	_ = out.CopyFrom(a)
	for _, u := range ups {
		for i, vi := range u.V {
			for j, vj := range u.V {
				if u.Start+j > u.Start+i {
					continue
				}
				_ = out.Inc(u.Start+i, u.Start+j, u.Sigma*vi*vj)
			}
		}
	}
	return out
}

func maxRelFactorDiff(t *testing.T, upd, ref *BandCholesky, n, bw int) float64 {
	t.Helper()
	w1 := bw + 1
	var worst float64
	for i := 0; i < n*w1; i++ {
		d := math.Abs(upd.l[i] - ref.l[i])
		scale := math.Abs(ref.l[i])
		if scale < 1 {
			scale = 1
		}
		if d/scale > worst {
			worst = d / scale
		}
	}
	return worst
}

func TestUpdateRankKAgreesWithRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	cases := []struct{ n, bw, k int }{
		{8, 2, 1},
		{20, 3, 4},
		{50, 6, 5},
		{600, 3, 4}, // transposed-copy path
	}
	for _, tc := range cases {
		_, a := randBandSPD(rng, tc.n, tc.bw)
		var upd BandCholesky
		if err := upd.Factorize(a); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		ups := make([]RankUpdate, tc.k)
		for u := range ups {
			width := 1 + rng.Intn(tc.bw+1)
			start := rng.Intn(tc.n - width + 1)
			v := make([]float64, width)
			for i := range v {
				v[i] = rng.NormFloat64() * 0.3
			}
			sigma := 0.5 + rng.Float64()
			if u%2 == 1 {
				sigma = -sigma * 0.05 // small downdates stay PD on a dominant matrix
			}
			ups[u] = RankUpdate{Start: start, V: v, Sigma: sigma}
		}
		if err := upd.UpdateRankK(ups); err != nil {
			t.Fatalf("n=%d: UpdateRankK: %v", tc.n, err)
		}
		perturbed := applyRankUpdates(a, ups)
		var ref BandCholesky
		if err := ref.Factorize(perturbed); err != nil {
			t.Fatalf("n=%d: refactorize: %v", tc.n, err)
		}
		if worst := maxRelFactorDiff(t, &upd, &ref, tc.n, tc.bw); worst > 1e-10 {
			t.Fatalf("n=%d bw=%d k=%d: factor disagrees with refactorization: max rel diff %g", tc.n, tc.bw, tc.k, worst)
		}
		// The solve path (dinv and, on large shapes, the transposed copy)
		// must be refreshed too.
		b := NewVector(tc.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xu, xr := NewVector(tc.n), NewVector(tc.n)
		if err := upd.Solve(b, xu); err != nil {
			t.Fatal(err)
		}
		if err := ref.Solve(b, xr); err != nil {
			t.Fatal(err)
		}
		for i := range xu {
			scale := math.Abs(xr[i])
			if scale < 1 {
				scale = 1
			}
			if math.Abs(xu[i]-xr[i])/scale > 1e-10 {
				t.Fatalf("n=%d: solve disagrees at %d: %v vs %v", tc.n, i, xu[i], xr[i])
			}
		}
	}
}

func TestUpdateRankKFallbackTrigger(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, bw := 16, 3
	_, a := randBandSPD(rng, n, bw)
	var chol BandCholesky
	if err := chol.Factorize(a); err != nil {
		t.Fatal(err)
	}
	// Downdating by (slightly more than) the full diagonal entry at row 9
	// makes the perturbed matrix indefinite: the sweep must detect the
	// collapsing pivot and report the unstable-update error, which is the
	// signal the QP session layer converts into a full refactorization.
	v := []float64{math.Sqrt(a.At(9, 9) * 1.0000001)}
	err := chol.UpdateRankK([]RankUpdate{{Start: 9, V: v, Sigma: -1}})
	if !errors.Is(err, ErrUpdateUnstable) {
		t.Fatalf("want ErrUpdateUnstable, got %v", err)
	}
	// The fallback path: refill + refactorize restores a valid factor.
	if err := chol.Factorize(a); err != nil {
		t.Fatalf("recovery factorize: %v", err)
	}
	b := NewVector(n)
	b[0] = 1
	x := NewVector(n)
	if err := chol.Solve(b, x); err != nil {
		t.Fatalf("solve after recovery: %v", err)
	}
}

func TestUpdateRankKValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, bw := 10, 2
	_, a := randBandSPD(rng, n, bw)
	var chol BandCholesky
	if err := chol.Factorize(a); err != nil {
		t.Fatal(err)
	}
	bad := []RankUpdate{
		{Start: 0, V: []float64{1, 1, 1, 1}, Sigma: 1},  // wider than bw+1
		{Start: 8, V: []float64{1, 1, 1}, Sigma: 1},     // runs past n
		{Start: -1, V: []float64{1}, Sigma: 1},          // negative start
		{Start: 0, V: nil, Sigma: 1},                    // empty window
		{Start: 0, V: []float64{1}, Sigma: 0},           // zero sigma
		{Start: 0, V: []float64{1}, Sigma: math.NaN()},  // NaN sigma
		{Start: 0, V: []float64{1}, Sigma: math.Inf(1)}, // infinite sigma
	}
	for i, u := range bad {
		if err := chol.UpdateRankK([]RankUpdate{u}); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("bad update %d: want ErrDimensionMismatch, got %v", i, err)
		}
	}
	// Validation happens before any mutation: a batch with a bad tail
	// leaves the factor untouched even though its head was applicable.
	before := append([]float64(nil), chol.l...)
	err := chol.UpdateRankK([]RankUpdate{
		{Start: 0, V: []float64{1}, Sigma: 1},
		{Start: 0, V: nil, Sigma: 1},
	})
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("want ErrDimensionMismatch, got %v", err)
	}
	for i := range before {
		if chol.l[i] != before[i] {
			t.Fatal("factor mutated by a batch that failed validation")
		}
	}
}

func TestSharedSymbolicRegistry(t *testing.T) {
	h0, m0 := SymbolicRegistryStats()
	s1 := SharedSymbolic(37, 5)
	s2 := SharedSymbolic(37, 5)
	if s1 != s2 {
		t.Fatal("same shape did not share one symbolic object")
	}
	if s1.N() != 37 || s1.Bandwidth() != 5 {
		t.Fatalf("symbolic shape (%d,%d), want (37,5)", s1.N(), s1.Bandwidth())
	}
	h1, m1 := SymbolicRegistryStats()
	if h1 <= h0 {
		t.Fatalf("hits did not advance: %d -> %d", h0, h1)
	}
	if m1 < m0 {
		t.Fatalf("misses went backwards: %d -> %d", m0, m1)
	}
	// Clamping matches Symbolic: an oversized bandwidth keys the same
	// entry as the clamped one.
	if SharedSymbolic(4, 99) != SharedSymbolic(4, 3) {
		t.Fatal("clamped shapes did not share")
	}

	// A factorization prepared from the shared symbolic behaves exactly
	// like one prepared by its own Symbolic call.
	rng := rand.New(rand.NewSource(3))
	_, a := randBandSPD(rng, 37, 5)
	var viaShared, viaOwn BandCholesky
	viaShared.SymbolicFrom(SharedSymbolic(37, 5))
	viaOwn.Symbolic(37, 5)
	if err := viaShared.Factorize(a); err != nil {
		t.Fatal(err)
	}
	if err := viaOwn.Factorize(a); err != nil {
		t.Fatal(err)
	}
	b := NewVector(37)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, x2 := NewVector(37), NewVector(37)
	if err := viaShared.Solve(b, x1); err != nil {
		t.Fatal(err)
	}
	if err := viaOwn.Solve(b, x2); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("shared-symbolic solve differs at %d", i)
		}
	}
}

// BenchmarkRankKUpdate compares a k-row factorization update against the
// full refill+refactorize it replaces (the marginal vs cold cost of a
// quota-perturbed re-solve).
func BenchmarkRankKUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n, bw, k := 240, 4, 2
	_, a := randBandSPD(rng, n, bw)
	ups := make([]RankUpdate, k)
	for u := range ups {
		v := make([]float64, bw+1)
		for i := range v {
			v[i] = rng.NormFloat64() * 1e-3
		}
		ups[u] = RankUpdate{Start: rng.Intn(n - bw), V: v, Sigma: 1}
	}
	var chol BandCholesky
	if err := chol.Factorize(a); err != nil {
		b.Fatal(err)
	}
	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := chol.UpdateRankK(ups); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refactorize", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := chol.Factorize(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}
