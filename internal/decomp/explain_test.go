package decomp

import (
	"math"
	"testing"

	"dspp/internal/core"
)

// TestControllerLastExplainDecomp covers the dual-retention fix: the
// coordinated solver must keep the final round's per-shard capacity
// duals on the Solution (instead of dropping them at convergence), and
// LastExplain must surface them together with the quota split actually
// applied.
func TestControllerLastExplainDecomp(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 160, DCSites: 16, Seed: 81, Utilization: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(scn.Inst, 2, Options{MaxShardSize: 40, BypassRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	if e := ctrl.LastExplain(); e.CapacityDuals != nil || e.Quotas != nil {
		t.Fatal("explain non-zero before first step")
	}
	if _, _, err := ctrl.Step(scn.Demand, scn.Prices); err != nil {
		t.Fatal(err)
	}
	sol := ctrl.LastSolution()
	if sol == nil {
		t.Fatal("no solution after coordinated step")
	}
	nDC := scn.Inst.NumDataCenters()
	if len(sol.CapacityDuals) != nDC || len(sol.Quotas) != nDC || len(sol.ShardOfDC) != nDC {
		t.Fatalf("solution provenance lens %d/%d/%d, want %d",
			len(sol.CapacityDuals), len(sol.Quotas), len(sol.ShardOfDC), nDC)
	}
	e := ctrl.LastExplain()
	if len(e.CapacityDuals) != nDC || len(e.Quotas) != nDC || len(e.ShardOfDC) != nDC {
		t.Fatalf("explain lens %d/%d/%d, want %d",
			len(e.CapacityDuals), len(e.Quotas), len(e.ShardOfDC), nDC)
	}
	exclusive := 0
	for l := 0; l < nDC; l++ {
		if e.CapacityDuals[l] != sol.CapacityDuals[l] || e.Quotas[l] != sol.Quotas[l] {
			t.Fatalf("explain diverges from solution at dc %d", l)
		}
		if d := e.CapacityDuals[l]; d < 0 || math.IsNaN(d) {
			t.Fatalf("dual[%d] = %g", l, d)
		}
		cap, err := scn.Inst.Capacity(l)
		if err != nil {
			t.Fatal(err)
		}
		if q := e.Quotas[l]; q <= 0 || q > cap*(1+1e-9) {
			t.Fatalf("quota[%d] = %g, capacity %g", l, q, cap)
		}
		if s := e.ShardOfDC[l]; s < -1 {
			t.Fatalf("shard[%d] = %d", l, s)
		} else if s >= 0 {
			exclusive++
			// An exclusively owned DC's enforced quota is its capacity.
			if q := e.Quotas[l]; math.Abs(q-cap) > 1e-9*math.Max(1, cap) {
				t.Fatalf("exclusive dc %d quota %g != capacity %g", l, q, cap)
			}
		}
	}
	if exclusive == 0 {
		t.Fatal("no DC exclusively owned by a shard (partition degenerate?)")
	}
	// The returned slices are copies: mutating them must not corrupt the
	// retained solution.
	e.CapacityDuals[0] = -42
	if ctrl.LastExplain().CapacityDuals[0] == -42 {
		t.Fatal("LastExplain leaks internal storage")
	}
	// A second (warm) step must still explain.
	if _, _, err := ctrl.Step(scn.Demand, scn.Prices); err != nil {
		t.Fatal(err)
	}
	if e := ctrl.LastExplain(); len(e.CapacityDuals) != nDC {
		t.Fatalf("explain lost after second step: %d duals", len(e.CapacityDuals))
	}
}

// TestControllerLastExplainBypass checks the bypass path (instance too
// small to shard) delegates to the monolithic controller's explain:
// duals only, no quota view.
func TestControllerLastExplainBypass(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 12, DCSites: 2, Seed: 7, Utilization: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(scn.Inst, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctrl.Step(scn.Demand, scn.Prices); err != nil {
		t.Fatal(err)
	}
	e := ctrl.LastExplain()
	if len(e.CapacityDuals) != scn.Inst.NumDataCenters() {
		t.Fatalf("bypass duals len %d", len(e.CapacityDuals))
	}
	if e.Quotas != nil || e.ShardOfDC != nil {
		t.Fatal("bypass path must not report a quota split")
	}
	var _ core.Explainer = ctrl // compile-time: decomp controller explains
}
