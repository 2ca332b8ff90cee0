package dspp_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dspp"
)

// buildInstance assembles a 2-DC, 2-location instance through the public
// API only.
func buildInstance(t *testing.T) *dspp.Instance {
	t.Helper()
	sla, err := dspp.SLAMatrix([][]float64{
		{0.02, 0.06},
		{0.06, 0.02},
	}, dspp.SLAConfig{Mu: 250, MaxDelay: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dspp.NewInstance(dspp.InstanceConfig{
		SLA:             sla,
		ReconfigWeights: []float64{1e-4, 1e-4},
		Capacities:      []float64{2000, 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPublicAPIEndToEnd(t *testing.T) {
	inst := buildInstance(t)
	ctrl, err := dspp.NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	demand := [][]float64{{1000, 2000}, {1000, 2000}, {1000, 2000}}
	prices := [][]float64{{0.05, 0.08}, {0.05, 0.08}, {0.05, 0.08}}
	res, err := ctrl.Step(demand, prices)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewState.Total() <= 0 {
		t.Error("no servers allocated")
	}
	slack, err := inst.DemandSlack(res.NewState, demand[0])
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range slack {
		if s < -1e-4 {
			t.Errorf("location %d slack %g", v, s)
		}
	}
	// The routing policy conserves demand.
	assign, err := inst.Assign(res.NewState, demand[0])
	if err != nil {
		t.Fatal(err)
	}
	for v := range demand[0] {
		var sum float64
		for l := range assign {
			sum += assign[l][v]
		}
		if math.Abs(sum-demand[0][v]) > 1e-9 {
			t.Errorf("location %d routed %g of %g", v, sum, demand[0][v])
		}
	}
}

func TestPublicErrorsAreMatchable(t *testing.T) {
	_, err := dspp.NewInstance(dspp.InstanceConfig{})
	if !errors.Is(err, dspp.ErrBadInstance) {
		t.Errorf("err = %v", err)
	}
	_, err = dspp.NewInstance(dspp.InstanceConfig{
		SLA:             [][]float64{{math.Inf(1)}},
		ReconfigWeights: []float64{1},
		Capacities:      []float64{1},
	})
	if !errors.Is(err, dspp.ErrInfeasible) {
		t.Errorf("orphan err = %v", err)
	}
}

func TestPublicSimulationWithBaselines(t *testing.T) {
	inst := buildInstance(t)
	demand := make([][]float64, 8)
	prices := make([][]float64, 8)
	for k := range demand {
		demand[k] = []float64{800, 1200}
		prices[k] = []float64{0.05, 0.06}
	}
	ctrl, err := dspp.NewController(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	policies := []dspp.Policy{dspp.NewMPCPolicy(ctrl)}
	greedy, err := dspp.NewGreedyNearestPolicy(inst)
	if err != nil {
		t.Fatal(err)
	}
	static, err := dspp.NewStaticAveragePolicy(inst, demand, prices)
	if err != nil {
		t.Fatal(err)
	}
	myopic, err := dspp.NewMyopicPolicy(inst)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := dspp.NewLazyThresholdPolicy(inst, 1.2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	policies = append(policies, greedy, static, myopic, lazy)
	for _, pol := range policies {
		res, err := dspp.Simulate(dspp.SimConfig{
			Instance:    inst,
			Policy:      pol,
			DemandTrace: demand,
			PriceTrace:  prices,
			Periods:     6,
			Horizon:     2,
		})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.TotalCost <= 0 {
			t.Errorf("%s: cost %g", pol.Name(), res.TotalCost)
		}
	}
}

func TestPublicEnvironmentHelpers(t *testing.T) {
	cities := dspp.USCities()
	if len(cities) < 24 {
		t.Fatalf("cities = %d", len(cities))
	}
	sj, ok := dspp.CityByName("San Jose")
	if !ok {
		t.Fatal("San Jose missing")
	}
	atl, _ := dspp.CityByName("Atlanta")
	net, err := dspp.BuildGeoNetwork([]dspp.City{sj, atl}, cities[6:12], 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumDataCenters() != 2 || net.NumAccess() != 6 {
		t.Errorf("network %dx%d", net.NumDataCenters(), net.NumAccess())
	}
	ts, err := dspp.GenerateTopology(dspp.TopologyConfig{
		TransitNodes: 3, StubsPerTransit: 4, NodesPerStub: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	net2, err := dspp.BuildNetwork(ts, cities[:2], cities[2:6])
	if err != nil {
		t.Fatal(err)
	}
	if net2.NumAccess() != 4 {
		t.Errorf("generated network access = %d", net2.NumAccess())
	}
	regions := dspp.PaperRegions()
	if len(regions) != 4 {
		t.Errorf("regions = %d", len(regions))
	}
	if _, ok := dspp.RegionByName("CA"); !ok {
		t.Error("CA region missing")
	}
	d, err := dspp.NewDiurnalDemand(10, 100)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := dspp.MaterializeDemand(d, 24)
	if err != nil || len(trace) != 24 {
		t.Errorf("trace %d, %v", len(trace), err)
	}
	ca, _ := dspp.RegionByName("CA")
	pm := dspp.DiurnalServerPrice{Region: ca, Class: dspp.MediumVM}
	pt, err := dspp.MaterializePrices(pm, 24)
	if err != nil || len(pt) != 24 {
		t.Errorf("price trace %d, %v", len(pt), err)
	}
}

func TestPublicCompetition(t *testing.T) {
	mk := func(name string, level float64) *dspp.Provider {
		demand := make([][]float64, 2)
		prices := make([][]float64, 2)
		for t2 := range demand {
			demand[t2] = []float64{level}
			prices[t2] = []float64{0.02, 0.12}
		}
		return &dspp.Provider{
			Name:            name,
			SLA:             [][]float64{{0.01}, {0.01}},
			ReconfigWeights: []float64{1e-4, 1e-4},
			ServerSize:      1,
			Demand:          demand,
			Prices:          prices,
		}
	}
	scenario := &dspp.GameScenario{
		Capacity:  []float64{10, math.Inf(1)},
		Providers: []*dspp.Provider{mk("a", 1000), mk("b", 1500)},
	}
	swp, err := dspp.SolveSocialWelfare(scenario)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := dspp.BestResponse(scenario, dspp.BestResponseConfig{Epsilon: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := dspp.EfficiencyRatio(ne, swp)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1.2 || ratio < 0.95 {
		t.Errorf("efficiency ratio %g", ratio)
	}
	bad := &dspp.GameScenario{}
	if _, err := dspp.BestResponse(bad, dspp.BestResponseConfig{}); !errors.Is(err, dspp.ErrBadScenario) {
		t.Errorf("bad scenario err = %v", err)
	}
}

func TestPublicAnalysisAPI(t *testing.T) {
	// Streaming statistics.
	var w dspp.Welford
	w.Add(1)
	w.Add(3)
	if w.Mean() != 2 {
		t.Errorf("Welford mean = %g", w.Mean())
	}
	e, err := dspp.NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Errorf("EWMA = %g", e.Value())
	}
	q, err := dspp.NewP2Quantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		q.Add(float64(i))
	}
	if v := q.Value(); v < 80 || v > 99 {
		t.Errorf("P2 p90 = %g", v)
	}
	ft, err := dspp.NewForecastTracker()
	if err != nil {
		t.Fatal(err)
	}
	ft.Observe(9, 10)
	if ft.Bias() != -1 {
		t.Errorf("tracker bias = %g", ft.Bias())
	}

	// Request-level dispatch through the public API.
	inst := buildInstance(t)
	ctrl, err := dspp.NewController(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	demand := [][]float64{{2000, 1000}, {2000, 1000}, {2000, 1000}}
	prices := [][]float64{{0.05, 0.05}, {0.05, 0.05}, {0.05, 0.05}}
	step, err := ctrl.Step(demand, prices)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dspp.Dispatch(inst, step.NewState, demand[0], dspp.DispatchConfig{
		Latency:  [][]float64{{0.02, 0.06}, {0.06, 0.02}},
		Mu:       250,
		SLABound: 0.25,
		Requests: 20000,
		Rng:      rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mean <= 0 || rep.Mean > 0.25 {
		t.Errorf("dispatch mean latency = %g", rep.Mean)
	}

	// Concurrent sweep through the public API.
	trace := make([][]float64, 8)
	ptrace := make([][]float64, 8)
	for k := range trace {
		trace[k] = []float64{1500, 900}
		ptrace[k] = []float64{0.05, 0.06}
	}
	mk := func(w int) dspp.SweepItem {
		c, err := dspp.NewController(inst, w)
		if err != nil {
			t.Fatal(err)
		}
		return dspp.SweepItem{
			Label: "w",
			Config: dspp.SimConfig{
				Instance:    inst,
				Policy:      dspp.NewMPCPolicy(c),
				DemandTrace: trace,
				PriceTrace:  ptrace,
				Periods:     5,
				Horizon:     w,
			},
		}
	}
	results, err := dspp.RunSweep([]dspp.SweepItem{mk(1), mk(2), mk(3)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("sweep results = %d", len(results))
	}
	for _, r := range results {
		if len(r.Result.ForecastAccuracy) != 2 {
			t.Errorf("forecast accuracy entries = %d", len(r.Result.ForecastAccuracy))
		}
	}
}
