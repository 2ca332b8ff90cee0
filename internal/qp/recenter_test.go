package qp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dspp/internal/telemetry"
)

// jammedWarmStart builds the warm-start jam of a shifted MPC plan on a
// horizon-shaped QP: it solves the problem, cuts the capacity row with
// the largest dual to cut × its load at that optimum, so traffic must
// move to DCs whose nonnegativity rows were active, and returns the cut
// problem with the old optimum as its warm start.
func jammedWarmStart(t *testing.T, seed int64, cut float64) (*Problem, *WarmStart) {
	t.Helper()
	p := horizonShapedQP(rand.New(rand.NewSource(seed)), 4, 12, 2)
	old, err := solveOnce(p, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gx := make([]float64, p.NumIneq())
	_ = p.G.MulVec(old.X, gx)
	row, best := -1, 0.0
	for i, h := range p.H {
		if h > 0 && old.IneqDuals[i] > best {
			row, best = i, old.IneqDuals[i]
		}
	}
	if row < 0 {
		t.Fatalf("seed %d: no binding capacity row", seed)
	}
	p.H[row] = cut * gx[row]
	return p, &WarmStart{X: old.X, Z: old.IneqDuals}
}

// TestRecenterUnjamsWarmStart: on a warm start whose active set must
// flip, the rung fires exactly once, the solve stays within maxIters
// (without the rung these take 13–16 iterations), and it reaches the
// cold solve's optimum.
func TestRecenterUnjamsWarmStart(t *testing.T) {
	const maxIters = 9
	fires := 0
	recenterHook = func(*ipmState) { fires++ }
	defer func() { recenterHook = nil }()
	for _, tc := range []struct {
		seed int64
		cut  float64
	}{{2, 0.5}, {4, 0.5}, {8, 0.3}, {8, 0.7}} {
		p, warm := jammedWarmStart(t, tc.seed, tc.cut)
		fires = 0
		got, err := solveOnce(p, DefaultOptions(), warm)
		if err != nil {
			t.Fatalf("seed %d cut %g: warm: %v", tc.seed, tc.cut, err)
		}
		if fires != 1 {
			t.Fatalf("seed %d cut %g: rung fired %d times, want 1", tc.seed, tc.cut, fires)
		}
		if got.Iterations > maxIters {
			t.Fatalf("seed %d cut %g: %d iterations, want ≤ %d", tc.seed, tc.cut, got.Iterations, maxIters)
		}
		want, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("seed %d cut %g: cold: %v", tc.seed, tc.cut, err)
		}
		if d := math.Abs(got.Objective - want.Objective); d > 1e-8*(1+math.Abs(want.Objective)) {
			t.Fatalf("seed %d cut %g: objective %.15g, cold %.15g", tc.seed, tc.cut, got.Objective, want.Objective)
		}
	}
}

// TestRecenterSkipsColdAndConverging: the rung never fires on a cold
// solve, nor on a warm start that converges without stalling (the
// unperturbed problem re-solved from its own optimum).
func TestRecenterSkipsColdAndConverging(t *testing.T) {
	fires := 0
	recenterHook = func(*ipmState) { fires++ }
	defer func() { recenterHook = nil }()
	for seed := int64(1); seed <= 6; seed++ {
		p := horizonShapedQP(rand.New(rand.NewSource(seed)), 4, 12, 2)
		res, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := solveOnce(p, DefaultOptions(), &WarmStart{X: res.X, Z: res.IneqDuals}); err != nil {
			t.Fatal(err)
		}
	}
	if fires != 0 {
		t.Fatalf("rung fired %d times on cold and unperturbed warm solves", fires)
	}
}

// TestRecenterTelemetry: a recentered solve counts in
// dspp_qp_recenters_total and its qp_solve span says recenters=1.
func TestRecenterTelemetry(t *testing.T) {
	p, warm := jammedWarmStart(t, 2, 0.5)
	var buf bytes.Buffer
	hub := telemetry.New(telemetry.WithTraceWriter(&buf))
	opts := DefaultOptions()
	opts.Hooks = hub.QPHooks()
	if _, err := solveOnce(p, opts, warm); err != nil {
		t.Fatal(err)
	}
	if got := hub.Registry().Snapshot()[telemetry.MetricQPRecenters]; got != 1 {
		t.Fatalf("recenters counter = %v, want 1", got)
	}
	events, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("%d spans, want one qp_solve", len(events))
	}
	if got, _ := events[0].Num("recenters"); got != 1 {
		t.Fatalf("qp_solve span recenters = %v, want 1", got)
	}
}
