package sim

import (
	"math"
	"testing"

	"dspp/internal/core"
	"dspp/internal/telemetry"
)

func attrRelErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if m := math.Abs(want); m > 1 {
		return d / m
	}
	return d
}

// TestRunEmitsAttribution is the engine-level provenance contract: with
// a hub attached, every executed period lands one record in the
// attribution ring whose components sum to the period's reported cost
// (plus the imputed shed cost on degraded periods) within 1e-9
// relative, carrying the controller's dual surface.
func TestRunEmitsAttribution(t *testing.T) {
	hub := telemetry.New()
	inst := cappedInstance(t, 10)
	ctrl, err := core.NewController(inst, 3, core.WithTelemetry(hub))
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultedConfig(t, inst, outageSchedule())
	cfg.Policy = &MPCPolicy{Ctrl: ctrl}
	cfg.Telemetry = hub
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedDemand <= 0 {
		t.Fatal("outage scenario must shed, or the shed-attribution arm is vacuous")
	}

	ring := hub.Attribution().Ring()
	if got := ring.Periods(); got != uint64(len(res.Steps)) {
		t.Fatalf("ring has %d records, want %d", got, len(res.Steps))
	}
	recs := ring.Snapshot()
	sawShed := false
	for i, a := range recs {
		step := res.Steps[i]
		if a.Period != step.Period {
			t.Fatalf("record %d period %d, want %d", i, a.Period, step.Period)
		}
		if e := attrRelErr(a.ComponentSum(), a.Total); e > 1e-9 {
			t.Fatalf("period %d: components %g != total %g (rel %g)",
				a.Period, a.ComponentSum(), a.Total, e)
		}
		wantTotal := step.Cost.Total() + step.Degradation.ShedDemand*core.DefaultShedPenalty
		if e := attrRelErr(a.Total, wantTotal); e > 1e-9 {
			t.Fatalf("period %d: total %g, want %g", a.Period, a.Total, wantTotal)
		}
		if a.Mode != step.Degradation.Mode.String() {
			t.Fatalf("period %d: mode %q, want %q", a.Period, a.Mode, step.Degradation.Mode)
		}
		if a.Churn < 0 || a.Churn > 1 || a.WallUS < 0 {
			t.Fatalf("period %d: churn %g wall %d", a.Period, a.Churn, a.WallUS)
		}
		if len(a.DCs) != inst.NumDataCenters() {
			t.Fatalf("period %d: %d dc rows", a.Period, len(a.DCs))
		}
		for _, row := range a.DCs {
			if row.Dual < 0 || math.IsNaN(row.Dual) || math.IsInf(row.Quota, 0) {
				t.Fatalf("period %d dc %d: dual %g quota %g", a.Period, row.DC, row.Dual, row.Quota)
			}
			if row.Binding != (row.Dual > core.BindingTol) {
				t.Fatalf("period %d dc %d: binding flag disagrees with dual %g", a.Period, row.DC, row.Dual)
			}
		}
		if a.Shed > 0 {
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatal("no record carries imputed shed cost")
	}

	// /statusz serves the same numbers the ring holds.
	page := telemetry.Statusz(hub, 0)
	var total float64
	for _, a := range recs {
		total += a.Total
	}
	if e := attrRelErr(page.Rollup.Total, total); e > 1e-9 {
		t.Fatalf("statusz rollup %g, ring sums to %g", page.Rollup.Total, total)
	}
	if page.Rollup.DegradedPeriods != res.DegradedSteps {
		t.Fatalf("statusz degraded %d, result says %d", page.Rollup.DegradedPeriods, res.DegradedSteps)
	}
	if e := attrRelErr(page.Rollup.ShedDemand, res.ShedDemand); e > 1e-9 {
		t.Fatalf("statusz shed demand %g, result %g", page.Rollup.ShedDemand, res.ShedDemand)
	}
}

// TestRunNoTelemetryNoAttribution pins the disabled path: without a hub
// the engine must not build records at all (the 0-allocs/solve guard
// depends on the whole provenance layer staying off this path).
func TestRunNoTelemetryNoAttribution(t *testing.T) {
	inst := cappedInstance(t, 10)
	cfg := faultedConfig(t, inst, nil)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var hub *telemetry.Hub
	if hub.Attribution() != nil {
		t.Fatal("nil hub must yield nil sink")
	}
}
