package core

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// attrInstance builds a 3-DC × 3-location instance with heterogeneous
// SLA coefficients (so the local/bandwidth split is non-trivial), one
// infeasible pair, and one uncapacitated DC.
func attrInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := NewInstance(Config{
		SLA: [][]float64{
			{0.010, 0.015, 0.020},
			{0.014, 0.011, math.Inf(1)},
			{0.022, 0.018, 0.012},
		},
		ReconfigWeights: []float64{0.5, 1, 2},
		Capacities:      []float64{40, 60, math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if m := math.Abs(want); m > 1 {
		return d / m
	}
	return d
}

func TestAttributeCostMatchesPeriodCost(t *testing.T) {
	inst := attrInstance(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		x, u := inst.NewState(), inst.NewState()
		for l := 0; l < inst.NumDataCenters(); l++ {
			for v := 0; v < inst.NumLocations(); v++ {
				if inst.Feasible(l, v) {
					x[l][v] = rng.Float64() * 10
					u[l][v] = rng.Float64()*4 - 2
				}
			}
		}
		prices := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		cost, err := inst.PeriodCost(x, u, prices)
		if err != nil {
			t.Fatal(err)
		}
		dcs, err := inst.AttributeCost(x, u, prices)
		if err != nil {
			t.Fatal(err)
		}
		var res, bw, rec, servers float64
		for _, dc := range dcs {
			if dc.Resource < 0 || dc.Bandwidth < 0 || dc.Reconfig < 0 {
				t.Fatalf("negative component: %+v", dc)
			}
			res += dc.Resource
			bw += dc.Bandwidth
			rec += dc.Reconfig
			servers += dc.Servers
		}
		if e := relErr(res+bw, cost.Resource); e > 1e-9 {
			t.Fatalf("trial %d: resource split %g vs H_k %g (rel %g)", trial, res+bw, cost.Resource, e)
		}
		if e := relErr(rec, cost.Reconfig); e > 1e-9 {
			t.Fatalf("trial %d: reconfig %g vs G_k %g (rel %g)", trial, rec, cost.Reconfig, e)
		}
		if e := relErr(servers, x.Total()); e > 1e-9 {
			t.Fatalf("trial %d: servers %g vs %g", trial, servers, x.Total())
		}
	}
}

func TestAttributeCostBestPlacementHasNoPremium(t *testing.T) {
	inst := attrInstance(t)
	// Location 0's best feasible rate is a=0.010 at DC 0: serving it
	// there entirely must carry zero bandwidth premium, serving it at
	// DC 2 (a=0.022) must.
	x := inst.NewState()
	x[0][0] = 5
	dcs, err := inst.AttributeCost(x, nil, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if dcs[0].Bandwidth != 0 || relErr(dcs[0].Resource, 5) > 1e-12 {
		t.Fatalf("best placement row %+v", dcs[0])
	}
	x = inst.NewState()
	x[2][0] = 5
	dcs, err = inst.AttributeCost(x, nil, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantLocal := 5 * (0.010 / 0.022)
	if relErr(dcs[2].Resource, wantLocal) > 1e-12 || relErr(dcs[2].Bandwidth, 5-wantLocal) > 1e-12 {
		t.Fatalf("premium row %+v, want local %g", dcs[2], wantLocal)
	}
}

func TestAttributeCostErrors(t *testing.T) {
	inst := attrInstance(t)
	x := inst.NewState()
	if _, err := inst.AttributeCost(x, nil, []float64{1}); err == nil {
		t.Error("short prices accepted")
	}
	if _, err := inst.AttributeCost(x, State{{1}}, []float64{1, 1, 1}); err == nil {
		t.Error("ragged control accepted")
	}
	bad := inst.NewState()
	bad[0][0] = -1
	if _, err := inst.AttributeCost(bad, nil, []float64{1, 1, 1}); err == nil {
		t.Error("invalid state accepted")
	}
}

func TestPlacementChurn(t *testing.T) {
	inst := attrInstance(t)
	a := inst.NewState()
	a[0][0], a[1][1] = 4, 3
	if got := inst.PlacementChurn(a, a); got != 0 {
		t.Errorf("identical states churn %g", got)
	}
	// Move location 0's full share from DC 0 (a=0.010) to DC 2
	// (a=0.022), keeping the served demand share x/a constant: the whole
	// of location 0's share moved, location 1's held.
	b := inst.NewState()
	b[2][0] = 4 * (0.022 / 0.010)
	b[1][1] = 3
	share0 := 4 / 0.010
	share1 := 3 / 0.011
	want := share0 / (share0 + share1)
	if got := inst.PlacementChurn(a, b); relErr(got, want) > 1e-9 {
		t.Errorf("partial move churn %g, want %g", got, want)
	}
	// Everything moves: churn 1.
	c := inst.NewState()
	c[2][0] = 4 * (0.022 / 0.010)
	c[0][1] = 3 * (0.015 / 0.011)
	if got := inst.PlacementChurn(a, c); relErr(got, 1) > 1e-9 {
		t.Errorf("full move churn %g, want 1", got)
	}
	if got := inst.PlacementChurn(nil, a); got != 0 {
		t.Errorf("nil prev churn %g", got)
	}
	if got := inst.PlacementChurn(inst.NewState(), inst.NewState()); got != 0 {
		t.Errorf("empty states churn %g", got)
	}
	if inst.PlacementChurn(a, b) < 0 || inst.PlacementChurn(a, b) > 1 {
		t.Error("churn out of [0,1]")
	}
}

func TestControllerLastExplain(t *testing.T) {
	inst := attrInstance(t)
	c, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := c.LastExplain(); e.CapacityDuals != nil {
		t.Fatal("explain non-zero before first step")
	}
	// Demand heavy enough that the cheap capacitated DCs (caps 40 and 60,
	// ~a=0.01 → ≥600 servers required in total) saturate and the QP must
	// lean on the expensive uncapacitated DC 2.
	demand := constForecast(3, []float64{20000, 20000, 20000})
	prices := constForecast(3, []float64{0.05, 0.2, 1.0})
	if _, err := c.Step(demand, prices); err != nil {
		t.Fatal(err)
	}
	e := c.LastExplain()
	if len(e.CapacityDuals) != inst.NumDataCenters() {
		t.Fatalf("duals len %d", len(e.CapacityDuals))
	}
	binding := e.Binding(nil)
	if len(binding) == 0 {
		t.Fatalf("no binding DC under saturating demand; duals %v", e.CapacityDuals)
	}
	for _, l := range binding {
		if l == 2 {
			t.Error("uncapacitated DC reported binding")
		}
	}
	// Mutating the returned slice must not corrupt the controller.
	e.CapacityDuals[0] = -1
	if c.LastExplain().CapacityDuals[0] == -1 {
		t.Error("LastExplain leaks internal storage")
	}
}

func TestNewAttributionRecord(t *testing.T) {
	inst := attrInstance(t)
	c, err := NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := c.State()
	demand := constForecast(3, []float64{500, 400, 300})
	prices := constForecast(3, []float64{0.1, 0.15, 0.2})
	res, err := c.Step(demand, prices)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := inst.PeriodCost(res.NewState, res.Applied, prices[0])
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAttribution(inst, 1, res.NewState, res.Applied, prev, prices[0],
		cost, res.Degradation, 1500*time.Microsecond, c.LastExplain())
	if err != nil {
		t.Fatal(err)
	}
	if a.Period != 1 || a.WallUS != 1500 || a.Mode != res.Degradation.Mode.String() {
		t.Fatalf("record header %+v", a)
	}
	if e := relErr(a.ComponentSum(), a.Total); e > 1e-9 {
		t.Fatalf("components %g != total %g (rel %g)", a.ComponentSum(), a.Total, e)
	}
	if e := relErr(a.Total, cost.Total()); e > 1e-9 {
		t.Fatalf("clean period total %g != cost %g", a.Total, cost.Total())
	}
	if len(a.DCs) != inst.NumDataCenters() {
		t.Fatalf("dc rows %d", len(a.DCs))
	}
	for _, row := range a.DCs {
		if math.IsInf(row.Quota, 0) || math.IsNaN(row.Quota) {
			t.Errorf("non-finite quota on dc %d", row.DC)
		}
	}
	if a.DCs[0].Quota != 40 || a.DCs[1].Quota != 60 || a.DCs[2].Quota != 0 {
		t.Errorf("quotas %g %g %g", a.DCs[0].Quota, a.DCs[1].Quota, a.DCs[2].Quota)
	}
	// Shed periods impute cost: components still sum to Total.
	deg := Degradation{Mode: DegradeSoft, ShedDemand: 2.5}
	a, err = NewAttribution(inst, 2, res.NewState, res.Applied, prev, prices[0],
		cost, deg, time.Millisecond, Explain{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Shed != 2.5*DefaultShedPenalty || a.ShedDemand != 2.5 || a.Mode != "soft" {
		t.Fatalf("shed record %+v", a)
	}
	if e := relErr(a.ComponentSum(), a.Total); e > 1e-9 {
		t.Fatalf("shed components %g != total %g", a.ComponentSum(), a.Total)
	}
}
