package game

import (
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

// TestBestResponseSessionsBitIdentical pins the fast path's core contract:
// per-provider sessions (persistent solver state, arena-backed plans, in-place
// dual extraction) change not a single bit of the game's outcome relative
// to the pooled one-shot path, at any worker count.
func TestBestResponseSessionsBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		ses, err := BestResponse(twoProviderScenario(4, 8),
			BestResponseConfig{Epsilon: 0.001, Parallel: workers})
		if err != nil {
			t.Fatalf("workers=%d sessions: %v", workers, err)
		}
		one, err := BestResponse(twoProviderScenario(4, 8),
			BestResponseConfig{Epsilon: 0.001, Parallel: workers, NoSessions: true})
		if err != nil {
			t.Fatalf("workers=%d one-shot: %v", workers, err)
		}
		compareBR(t, "two-provider", ses, one)
	}
}

// TestBestResponseSessionsBitIdenticalRandom repeats the comparison over
// randomized multi-provider scenarios (mixed server sizes, multi-round
// convergence paths).
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
		cfg := BestResponseConfig{MaxIterations: 300, Parallel: 1 + rng.Intn(4)}
		ses, errS := BestResponse(mk(), cfg)
		cfg.NoSessions = true
		one, errO := BestResponse(mk(), cfg)
		if (errS == nil) != (errO == nil) {
			t.Fatalf("trial %d: session err %v, one-shot err %v", trial, errS, errO)
		}
		if errS != nil {
			continue
		}
		compareBR(t, "random", ses, one)
	}
}
