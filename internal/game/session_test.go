package game

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// compareBR requires two best-response results to agree bitwise on every
// field a caller can observe.
func compareBR(t *testing.T, label string, a, b *BestResponseResult) {
	t.Helper()
	if a.Iterations != b.Iterations || a.Converged != b.Converged || a.Total != b.Total {
		t.Fatalf("%s: (%d, %v, %v) vs (%d, %v, %v)", label,
			a.Iterations, a.Converged, a.Total, b.Iterations, b.Converged, b.Total)
	}
	if len(a.CostHistory) != len(b.CostHistory) {
		t.Fatalf("%s: history %d vs %d", label, len(a.CostHistory), len(b.CostHistory))
	}
	for r := range a.CostHistory {
		if a.CostHistory[r] != b.CostHistory[r] {
			t.Fatalf("%s: history[%d] %v != %v", label, r, a.CostHistory[r], b.CostHistory[r])
		}
	}
	for i := range a.Quotas {
		for li := range a.Quotas[i] {
			if a.Quotas[i][li] != b.Quotas[i][li] {
				t.Fatalf("%s: quota[%d][%d] %v != %v", label, i, li, a.Quotas[i][li], b.Quotas[i][li])
			}
		}
	}
	for i := range a.Outcomes {
		oa, ob := a.Outcomes[i], b.Outcomes[i]
		if oa.Cost != ob.Cost {
			t.Fatalf("%s: cost[%d] %v != %v", label, i, oa.Cost, ob.Cost)
		}
		for ti := range oa.U {
			for l := range oa.U[ti] {
				for v := range oa.U[ti][l] {
					if oa.U[ti][l][v] != ob.U[ti][l][v] {
						t.Fatalf("%s: U[%d][%d][%d][%d] %v != %v", label, i, ti, l, v,
							oa.U[ti][l][v], ob.U[ti][l][v])
					}
					if oa.X[ti][l][v] != ob.X[ti][l][v] {
						t.Fatalf("%s: X[%d][%d][%d][%d] %v != %v", label, i, ti, l, v,
							oa.X[ti][l][v], ob.X[ti][l][v])
					}
				}
			}
		}
	}
}

// TestBestResponseSessionsBitIdentical pins the determinism contract of
// the session-backed round loop: the per-provider sessions (persistent
// solver state, arena-backed plans, in-place dual extraction) produce the
// same game, bit for bit, at 1, 2 and 4 workers. That a reused session
// solves exactly as a fresh one does is pinned by core's
// TestHorizonSessionBitIdenticalToOneShot.
func TestBestResponseSessionsBitIdentical(t *testing.T) {
	want, err := BestResponse(twoProviderScenario(4, 8), BestResponseConfig{Epsilon: 0.001, Parallel: 1})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for _, workers := range []int{2, 4} {
		got, err := BestResponse(twoProviderScenario(4, 8),
			BestResponseConfig{Epsilon: 0.001, Parallel: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		compareBR(t, fmt.Sprintf("two-provider workers=%d", workers), got, want)
	}
}

// TestBestResponseSessionsBitIdenticalRandom repeats the worker-count
// comparison over randomized multi-provider scenarios (mixed server
// sizes, multi-round convergence paths).
func TestBestResponseSessionsBitIdenticalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4; trial++ {
		n := 2 + rng.Intn(3)
		const w = 3
		mk := func() *Scenario {
			drng := rand.New(rand.NewSource(int64(1000 + trial)))
			providers := make([]*Provider, n)
			for i := range providers {
				demand := make([][]float64, w)
				prices := make([][]float64, w)
				for t2 := 0; t2 < w; t2++ {
					demand[t2] = []float64{200 + drng.Float64()*800}
					prices[t2] = []float64{0.05 + drng.Float64()*0.1, 0.5 + drng.Float64()}
				}
				providers[i] = &Provider{
					Name:            "sp",
					SLA:             [][]float64{{0.005 + drng.Float64()*0.02}, {0.005 + drng.Float64()*0.02}},
					ReconfigWeights: []float64{1e-4, 1e-4},
					ServerSize:      1 + float64(drng.Intn(2)),
					Demand:          demand,
					Prices:          prices,
				}
			}
			return &Scenario{
				Capacity:  []float64{5 + drng.Float64()*20, math.Inf(1)},
				Providers: providers,
			}
		}
		want, errW := BestResponse(mk(), BestResponseConfig{MaxIterations: 300, Parallel: 1})
		for _, workers := range []int{2, 4} {
			got, err := BestResponse(mk(), BestResponseConfig{MaxIterations: 300, Parallel: workers})
			if (err == nil) != (errW == nil) {
				t.Fatalf("trial %d workers=%d: err %v, one worker err %v", trial, workers, err, errW)
			}
			if err != nil {
				continue
			}
			compareBR(t, fmt.Sprintf("random trial %d workers=%d", trial, workers), got, want)
		}
	}
}
