package dspp_test

// End-to-end provenance acceptance: a 100-period continental run under
// the decomposed controller must leave a complete attribution trail —
// per-period cost components that sum to the reported period cost,
// /statusz rollups that agree with the ring, and a trace from which the
// coordination critical path reconstructs.

import (
	"bytes"
	"math"
	"testing"

	"dspp"
	"dspp/internal/core"
)

func provRelErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if m := math.Abs(want); m > 1 {
		return d / m
	}
	return d
}

func TestContinentalAttributionEndToEnd(t *testing.T) {
	const (
		locations = 120
		dcsites   = 12
		periods   = 100
		horizon   = 2
	)
	scn, err := dspp.NewContinentalScenario(dspp.ContinentalScenarioConfig{
		Locations: locations,
		DCSites:   dcsites,
		Seed:      42,
		Horizon:   horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := scn.Inst

	// Diurnal demand (peak = the scenario's sizing point, so the run stays
	// feasible) keeps the placement moving so churn and reconfiguration
	// attribution are exercised, not just the steady state.
	steps := periods + horizon + 1
	demandTrace := make([][]float64, steps)
	priceTrace := make([][]float64, steps)
	const amp = 0.3
	for k := range demandTrace {
		demandTrace[k] = make([]float64, locations)
		f := (1 - amp) + amp*math.Sin(2*math.Pi*float64(k)/24)
		for v := range demandTrace[k] {
			demandTrace[k][v] = scn.Demand[0][v] * f
		}
		priceTrace[k] = append([]float64(nil), scn.Prices[0]...)
	}

	var trace bytes.Buffer
	hub := dspp.NewTelemetry(dspp.WithTraceWriter(&trace))
	ctrl, err := dspp.NewDecompController(inst, horizon, dspp.DecompOptions{
		MaxShardSize: 30,
		Telemetry:    hub,
		BypassRatio:  -1, // coordinate even where the cost model would bypass
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Partition() == nil {
		t.Fatal("instance below decomposition threshold; test must exercise the coordinated path")
	}
	res, err := dspp.Simulate(dspp.SimConfig{
		Instance:    inst,
		Policy:      ctrl,
		DemandTrace: demandTrace,
		PriceTrace:  priceTrace,
		Periods:     periods,
		Horizon:     horizon,
		Telemetry:   hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != periods {
		t.Fatalf("ran %d periods, want %d", len(res.Steps), periods)
	}

	// Every period of the run has a record, and the decomposition holds:
	// resource + bandwidth + reconfig + shed = the period's reported cost
	// (plus imputed shed) within 1e-9 relative.
	recs := hub.Attribution().Ring().Snapshot()
	if len(recs) != periods {
		t.Fatalf("ring retains %d records, want %d", len(recs), periods)
	}
	sawShard := false
	for i, a := range recs {
		step := res.Steps[i]
		if a.Period != step.Period {
			t.Fatalf("record %d period %d, want %d", i, a.Period, step.Period)
		}
		if e := provRelErr(a.ComponentSum(), a.Total); e > 1e-9 {
			t.Fatalf("period %d: components %g != total %g (rel %g)",
				a.Period, a.ComponentSum(), a.Total, e)
		}
		want := step.Cost.Total() + step.Degradation.ShedDemand*core.DefaultShedPenalty
		if e := provRelErr(a.Total, want); e > 1e-9 {
			t.Fatalf("period %d: total %g, reported cost %g (rel %g)", a.Period, a.Total, want, e)
		}
		if a.Churn < 0 || a.Churn > 1 {
			t.Fatalf("period %d: churn %g", a.Period, a.Churn)
		}
		if len(a.DCs) != dcsites {
			t.Fatalf("period %d: %d dc rows, want %d", a.Period, len(a.DCs), dcsites)
		}
		for _, row := range a.DCs {
			if row.Dual < 0 || math.IsNaN(row.Dual) || math.IsInf(row.Quota, 0) {
				t.Fatalf("period %d dc %d: dual %g quota %g", a.Period, row.DC, row.Dual, row.Quota)
			}
			if row.Shard >= 0 {
				sawShard = true
			}
		}
	}
	if !sawShard {
		t.Fatal("no record carries the coordinated quota/shard view")
	}

	// /statusz serves the same numbers the ring holds.
	page := dspp.Statusz(hub, 0)
	if page.Periods != periods || len(page.Recent) != periods {
		t.Fatalf("statusz periods=%d recent=%d", page.Periods, len(page.Recent))
	}
	var total float64
	for _, a := range recs {
		total += a.Total
	}
	if e := provRelErr(page.Rollup.Total, total); e > 1e-9 {
		t.Fatalf("statusz rollup total %g, ring sums to %g", page.Rollup.Total, total)
	}
	if e := provRelErr(page.Rollup.Total, res.TotalCost+res.ShedDemand*core.DefaultShedPenalty); e > 1e-9 {
		t.Fatalf("statusz rollup total %g, run total %g", page.Rollup.Total, res.TotalCost)
	}

	// The trace reconstructs a critical path for at least one coordination
	// round (the acceptance bar for dsppsim trace-summary).
	events, err := dspp.ReadTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	paths := dspp.CriticalPathsFromTrace(events)
	if len(paths) == 0 {
		t.Fatal("no coordination critical path in trace")
	}
	for _, p := range paths {
		if p.CriticalUS <= 0 || p.CriticalUS > p.DurUS || len(p.Steps) == 0 {
			t.Fatalf("degenerate path %+v", p)
		}
	}
	table := dspp.FormatCriticalPaths(paths, 3)
	if table == "" {
		t.Fatal("critical-path table empty")
	}
}
