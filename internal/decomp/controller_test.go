package decomp

import (
	"context"
	"math"
	"testing"

	"dspp/internal/core"
	"dspp/internal/telemetry"
)

// sameBits reports whether two allocations are bitwise identical.
func sameBits(a, b core.State) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if len(a[l]) != len(b[l]) {
			return false
		}
		for v := range a[l] {
			if math.Float64bits(a[l][v]) != math.Float64bits(b[l][v]) {
				return false
			}
		}
	}
	return true
}

// TestControllerForwardsToCoreBitwise pins the benchmark-facing
// Controller to core.Controller: built with the options the benchmark
// ships and stepped through 24 diurnal periods of the n120 / 12-DC
// scenario, it must apply the same plans, reach the same states and
// report the same dual prices and degradation, bit for bit, and never
// report a coordinated solution or a partition.
func TestControllerForwardsToCoreBitwise(t *testing.T) {
	const (
		horizon = 2
		periods = 24
		amp     = 0.3
	)
	scn, err := NewScenario(ScenarioConfig{Locations: 120, DCSites: 12, Seed: 42, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.New()
	opt := Options{MaxShardSize: 30, Telemetry: hub, RankK: true, PeriodCarryTol: 1e-3}
	shim, err := NewController(scn.Inst, horizon, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewController(scn.Inst, horizon, core.WithTelemetry(hub))
	if err != nil {
		t.Fatal(err)
	}
	if shim.Partition() != nil {
		t.Fatal("Partition() != nil")
	}
	if !sameBits(shim.State(), ref.State()) {
		t.Fatal("initial states differ")
	}

	demand := make([][]float64, periods+horizon+1)
	for k := range demand {
		demand[k] = make([]float64, len(scn.Demand[0]))
		for v := range demand[k] {
			phase := scn.Net.Access[v].City.Lon/15 + 6
			demand[k][v] = scn.Demand[0][v] * ((1 - amp) + amp*math.Sin(2*math.Pi*(float64(k)+phase)/24))
		}
	}
	ctx := context.Background()
	for k := 0; k < periods; k++ {
		window := demand[k+1 : k+1+horizon]
		applied, state, err := shim.StepCtx(ctx, window, scn.Prices)
		if err != nil {
			t.Fatalf("period %d: %v", k, err)
		}
		res, err := ref.StepCtx(ctx, window, scn.Prices)
		if err != nil {
			t.Fatalf("period %d reference: %v", k, err)
		}
		if !sameBits(applied, res.Applied) || !sameBits(state, res.NewState) || !sameBits(shim.State(), ref.State()) {
			t.Fatalf("period %d: plan differs from core.Controller", k)
		}
		got, want := shim.LastExplain().CapacityDuals, ref.LastExplain().CapacityDuals
		if len(got) != len(want) {
			t.Fatalf("period %d: %d duals, want %d", k, len(got), len(want))
		}
		for l := range want {
			if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
				t.Fatalf("period %d: dual of DC %d is %g, want %g", k, l, got[l], want[l])
			}
		}
		if deg := shim.LastDegradation(); deg != res.Degradation {
			t.Fatalf("period %d: degradation %+v, want %+v", k, deg, res.Degradation)
		}
		if shim.LastSolution() != nil {
			t.Fatalf("period %d: LastSolution() != nil", k)
		}
	}
}

// TestControllerBypassSmallInstance steps a 12-location instance through
// the Controller and core.Controller side by side: no partition is
// built, the states agree and no step degrades.
func TestControllerBypassSmallInstance(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 12, DCSites: 3, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(scn.Inst, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Partition() != nil {
		t.Fatal("expected no partition for a 12-location instance")
	}
	ref, err := core.NewController(scn.Inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for k := 0; k < 3; k++ {
		_, got, err := ctrl.StepCtx(ctx, scn.Demand, scn.Prices)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.Step(scn.Demand, scn.Prices)
		if err != nil {
			t.Fatal(err)
		}
		for l := range got {
			for v := range got[l] {
				if math.Abs(got[l][v]-res.NewState[l][v]) > 1e-9 {
					t.Fatalf("step %d: state diverges from core controller at [%d][%d]", k, l, v)
				}
			}
		}
		if ctrl.LastDegradation().Mode != core.DegradeNone {
			t.Fatalf("step %d: unexpected degradation %v", k, ctrl.LastDegradation())
		}
	}
}

// TestControllerLastExplainBypass checks that LastExplain on a small
// instance delegates to core.Controller's explain: one capacity dual
// per data center, and none before the first step.
func TestControllerLastExplainBypass(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 12, DCSites: 2, Seed: 7, Utilization: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(scn.Inst, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := ctrl.LastExplain(); e.CapacityDuals != nil {
		t.Fatal("explain non-zero before first step")
	}
	if _, _, err := ctrl.StepCtx(context.Background(), scn.Demand, scn.Prices); err != nil {
		t.Fatal(err)
	}
	e := ctrl.LastExplain()
	if len(e.CapacityDuals) != scn.Inst.NumDataCenters() {
		t.Fatalf("duals len %d", len(e.CapacityDuals))
	}
	var _ core.Explainer = ctrl // compile-time: the controller explains
}
