package game

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dspp/internal/core"
	"dspp/internal/qp"
)

// twoProviderScenario: 2 DCs (first capacitated, cheap; second large,
// expensive), 2 providers each with one location, window w.
func twoProviderScenario(w int, bottleneck float64) *Scenario {
	mkProvider := func(name string, demand float64) *Provider {
		dem := make([][]float64, w)
		pr := make([][]float64, w)
		for t := 0; t < w; t++ {
			dem[t] = []float64{demand}
			pr[t] = []float64{0.1, 1.0} // DC0 10x cheaper
		}
		return &Provider{
			Name:            name,
			SLA:             [][]float64{{0.01}, {0.01}},
			ReconfigWeights: []float64{1e-4, 1e-4},
			ServerSize:      1,
			Demand:          dem,
			Prices:          pr,
		}
	}
	return &Scenario{
		Capacity:  []float64{bottleneck, math.Inf(1)},
		Providers: []*Provider{mkProvider("sp1", 1000), mkProvider("sp2", 1500)},
	}
}

func TestScenarioValidate(t *testing.T) {
	s := twoProviderScenario(3, 10)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no providers", func(s *Scenario) { s.Providers = nil }},
		{"no DCs", func(s *Scenario) { s.Capacity = nil }},
		{"bad capacity", func(s *Scenario) { s.Capacity[0] = 0 }},
		{"nil provider", func(s *Scenario) { s.Providers[0] = nil }},
		{"SLA rows", func(s *Scenario) { s.Providers[0].SLA = s.Providers[0].SLA[:1] }},
		{"server size", func(s *Scenario) { s.Providers[1].ServerSize = 0 }},
		{"horizon mismatch", func(s *Scenario) { s.Providers[1].Demand = s.Providers[1].Demand[:1] }},
		{"price horizon", func(s *Scenario) { s.Providers[1].Prices = s.Providers[1].Prices[:1] }},
		{"demand width", func(s *Scenario) { s.Providers[0].Demand[0] = []float64{1, 2} }},
		{"price width", func(s *Scenario) { s.Providers[0].Prices[0] = []float64{1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := twoProviderScenario(3, 10)
			tc.mutate(s)
			if err := s.Validate(); !errors.Is(err, ErrBadScenario) {
				t.Errorf("err = %v, want ErrBadScenario", err)
			}
		})
	}
}

func TestSWPRespectsSharedCapacity(t *testing.T) {
	// Bottleneck 10 capacity units at the cheap DC; both providers need
	// 25 server-slots total, so most load must go to the expensive DC.
	s := twoProviderScenario(3, 10)
	res, err := SolveSocialWelfare(s)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < 3; t2++ {
		var used float64
		for i, oc := range res.Outcomes {
			used += s.Providers[i].ServerSize * oc.X[t2][0][0]
		}
		if used > 10+1e-3 {
			t.Errorf("step %d: shared DC0 usage %g exceeds 10", t2, used)
		}
		// All demand served for each provider.
		for i, oc := range res.Outcomes {
			total := oc.X[t2][0][0]/0.01 + oc.X[t2][1][0]/0.01
			want := s.Providers[i].Demand[t2][0]
			if total < want-1 {
				t.Errorf("step %d provider %d: serves %g of %g", t2, i, total, want)
			}
		}
	}
	// Binding shared capacity must show a positive dual.
	var dualSum float64
	for _, row := range res.CapacityDuals {
		dualSum += row[0]
	}
	if dualSum <= 0 {
		t.Errorf("binding shared capacity dual sum = %g", dualSum)
	}
	if res.Total <= 0 {
		t.Errorf("total cost = %g", res.Total)
	}
}

func TestSWPUncapacitatedMatchesIndependentSolves(t *testing.T) {
	// With no binding capacity the SWP decomposes: total equals the sum
	// of each provider solving alone.
	s := twoProviderScenario(3, 1e9)
	joint, err := SolveSocialWelfare(s)
	if err != nil {
		t.Fatal(err)
	}
	var independent float64
	for _, p := range s.Providers {
		inst, err := core.NewInstance(core.Config{
			SLA:             p.SLA,
			ReconfigWeights: p.ReconfigWeights,
			Capacities:      []float64{math.Inf(1), math.Inf(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ses, err := inst.NewHorizonSession(len(p.Demand), qp.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := ses.Solve(core.HorizonInput{X0: inst.NewState(), Demand: p.Demand, Prices: p.Prices})
		if err != nil {
			t.Fatal(err)
		}
		independent += plan.Objective
	}
	if math.Abs(joint.Total-independent) > 1e-3*(1+independent) {
		t.Errorf("joint %g != independent %g", joint.Total, independent)
	}
}

// TestSWPMatchesSingleProviderOracle: with one provider the SWP is that
// provider's own horizon QP, with the shared capacity C in capacity units
// becoming C/sᵢ servers. Against a core horizon solve at capacity C/2 for
// server size 2, at a capacity that binds at every step, the totals agree
// to 1e-6 relative and the SWP capacity duals, times the server size
// (one capacity unit buys 1/sᵢ servers), agree with core's to 1e-6
// relative to the largest dual.
func TestSWPMatchesSingleProviderOracle(t *testing.T) {
	const capacity, size = 10.0, 2.0
	sla := [][]float64{{0.01, 0.02}, {0.01, 0.01}}
	weights := []float64{1e-4, 2e-4}
	x0 := core.State{{2, 1}, {3, 4}}
	demand := [][]float64{{900, 300}, {1100, 250}, {1000, 400}, {950, 350}}
	prices := [][]float64{{0.1, 1.0}, {0.12, 0.9}, {0.1, 1.1}, {0.11, 1.0}}
	s := &Scenario{
		Capacity: []float64{capacity, math.Inf(1)},
		Providers: []*Provider{{
			Name: "sp", SLA: sla, ReconfigWeights: weights, ServerSize: size,
			X0: x0, Demand: demand, Prices: prices,
		}},
	}
	swp, err := SolveSocialWelfare(s)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(core.Config{
		SLA: sla, ReconfigWeights: weights, Capacities: []float64{capacity / size, math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ses, err := inst.NewHorizonSession(len(demand), qp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ses.Solve(core.HorizonInput{X0: x0, Demand: demand, Prices: prices})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(swp.Total - plan.Objective); d > 1e-6*math.Abs(plan.Objective) {
		t.Fatalf("SWP total %.12g, core objective %.12g", swp.Total, plan.Objective)
	}
	var scale float64
	for _, row := range plan.CapacityDuals {
		scale = math.Max(scale, math.Abs(row[0]))
	}
	for step, row := range plan.CapacityDuals {
		if row[0] <= 0 {
			t.Fatalf("step %d: capacity does not bind (core dual %g)", step, row[0])
		}
		if got := swp.CapacityDuals[step][0] * size; math.Abs(got-row[0]) > 1e-6*scale {
			t.Fatalf("step %d: SWP capacity dual × server size %.12g, core dual %.12g", step, got, row[0])
		}
	}
}

func TestBestResponseConverges(t *testing.T) {
	s := twoProviderScenario(3, 10)
	res, err := BestResponse(s, BestResponseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Iterations < 2 {
		t.Errorf("iterations = %d, want ≥ 2", res.Iterations)
	}
	// Quotas at the bottleneck DC must sum to its capacity.
	var sum float64
	for i := range res.Quotas {
		q := res.Quotas[i][0]
		if q < 0 {
			t.Errorf("negative quota %g", q)
		}
		sum += q
	}
	if math.Abs(sum-10) > 1e-6 {
		t.Errorf("bottleneck quotas sum to %g, want 10", sum)
	}
	// Per-provider capacity respected.
	for i, oc := range res.Outcomes {
		for t2 := range oc.X {
			if used := oc.X[t2][0][0] * s.Providers[i].ServerSize; used > res.Quotas[i][0]+1e-3 {
				t.Errorf("provider %d step %d uses %g of quota %g", i, t2, used, res.Quotas[i][0])
			}
		}
	}
}

// Theorem 1: the best NE is socially optimal (PoS = 1). With ε = 0.05 the
// computed outcome should be within a few percent of the SWP optimum.
func TestBestResponseNearSocialOptimum(t *testing.T) {
	s := twoProviderScenario(3, 10)
	swp, err := SolveSocialWelfare(s)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := BestResponse(s, BestResponseConfig{Epsilon: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := EfficiencyRatio(ne, swp)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 0.98 {
		t.Errorf("NE beat the social optimum by too much: ratio %g (solver artifacts?)", ratio)
	}
	if ratio > 1.15 {
		t.Errorf("efficiency ratio %g too far above 1 (PoS should be 1)", ratio)
	}
}

// Paper Fig. 7: tighter bottlenecks need more rounds to stabilize.
func TestBestResponseTighterCapacitySlower(t *testing.T) {
	run := func(bottleneck float64) int {
		s := twoProviderScenario(3, bottleneck)
		res, err := BestResponse(s, BestResponseConfig{Epsilon: 0.001, Alpha: 0.3})
		if err != nil {
			t.Fatalf("bottleneck %g: %v", bottleneck, err)
		}
		return res.Iterations
	}
	tight := run(5)
	loose := run(2000) // effectively non-binding
	if tight < loose {
		t.Errorf("tight bottleneck converged faster (%d) than loose (%d)", tight, loose)
	}
	if loose > 3 {
		t.Errorf("non-binding case took %d rounds, want ≤ 3", loose)
	}
}

func TestBestResponseNotConverged(t *testing.T) {
	s := twoProviderScenario(3, 5)
	res, err := BestResponse(s, BestResponseConfig{
		Epsilon:       1e-12, // unattainably strict
		MaxIterations: 3,
	})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if res == nil || res.Iterations != 3 {
		t.Errorf("partial result = %+v", res)
	}
}

func TestBestResponseInvalidScenario(t *testing.T) {
	s := twoProviderScenario(2, 10)
	s.Providers[0].ServerSize = -1
	if _, err := BestResponse(s, BestResponseConfig{}); !errors.Is(err, ErrBadScenario) {
		t.Errorf("err = %v", err)
	}
	if _, err := SolveSocialWelfare(s); !errors.Is(err, ErrBadScenario) {
		t.Errorf("swp err = %v", err)
	}
}

func TestEfficiencyRatioEdgeCases(t *testing.T) {
	if _, err := EfficiencyRatio(nil, nil); !errors.Is(err, ErrBadScenario) {
		t.Errorf("nil err = %v", err)
	}
	r, err := EfficiencyRatio(&BestResponseResult{Total: 0}, &SWPResult{Total: 0})
	if err != nil || r != 1 {
		t.Errorf("zero/zero = %g, %v", r, err)
	}
	if _, err := EfficiencyRatio(&BestResponseResult{Total: 5}, &SWPResult{Total: 0}); err == nil {
		t.Error("positive/zero accepted")
	}
}

func TestServerSizesAffectSharedCapacity(t *testing.T) {
	// Provider with size-2 servers consumes twice the capacity per
	// server; SWP must account for that.
	s := twoProviderScenario(2, 10)
	s.Providers[0].ServerSize = 2
	res, err := SolveSocialWelfare(s)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < 2; t2++ {
		used := 2*res.Outcomes[0].X[t2][0][0] + res.Outcomes[1].X[t2][0][0]
		if used > 10+1e-3 {
			t.Errorf("step %d: weighted usage %g exceeds 10", t2, used)
		}
	}
}

func TestBestResponseRandomScenariosConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(3)
		w := 2
		providers := make([]*Provider, n)
		for i := range providers {
			demand := make([][]float64, w)
			prices := make([][]float64, w)
			for t2 := 0; t2 < w; t2++ {
				demand[t2] = []float64{200 + rng.Float64()*800}
				prices[t2] = []float64{0.05 + rng.Float64()*0.1, 0.5 + rng.Float64()}
			}
			providers[i] = &Provider{
				Name:            "sp",
				SLA:             [][]float64{{0.005 + rng.Float64()*0.02}, {0.005 + rng.Float64()*0.02}},
				ReconfigWeights: []float64{1e-4, 1e-4},
				ServerSize:      1 + float64(rng.Intn(2)),
				Demand:          demand,
				Prices:          prices,
			}
		}
		s := &Scenario{
			Capacity:  []float64{5 + rng.Float64()*20, math.Inf(1)},
			Providers: providers,
		}
		res, err := BestResponse(s, BestResponseConfig{MaxIterations: 300})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Converged {
			t.Errorf("trial %d did not converge", trial)
		}
	}
}

func TestBestResponseCustomInitialQuotas(t *testing.T) {
	s := twoProviderScenario(3, 10)
	// Heavily skewed start: provider 0 gets 90% of the bottleneck.
	res, err := BestResponse(s, BestResponseConfig{
		Epsilon:       0.01,
		InitialQuotas: [][]float64{{9, 1}, {1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range res.Quotas {
		sum += res.Quotas[i][0]
	}
	if math.Abs(sum-10) > 1e-6 {
		t.Errorf("quota sum %g, want 10", sum)
	}
}

func TestBestResponseInitialQuotaValidation(t *testing.T) {
	s := twoProviderScenario(2, 10)
	cases := [][][]float64{
		{{1, 1}},                  // wrong provider count
		{{1}, {1}},                // wrong DC count
		{{0, 1}, {1, 1}},          // nonpositive entry
		{{math.NaN(), 1}, {1, 1}}, // NaN
	}
	for i, init := range cases {
		if _, err := BestResponse(s, BestResponseConfig{InitialQuotas: init}); !errors.Is(err, ErrBadScenario) {
			t.Errorf("case %d err = %v, want ErrBadScenario", i, err)
		}
	}
}

// TestConcurrentGamesShareScenario runs best-response games and the
// social-welfare solve concurrently on one scenario. The scenario is
// read-only input: each game builds its own per-provider solver state, so
// under -race this must report no data race, and every concurrent game
// must match the sequential one bit for bit.
func TestConcurrentGamesShareScenario(t *testing.T) {
	s := twoProviderScenario(3, 10)
	cfg := BestResponseConfig{Epsilon: 0.001, Parallel: 1}
	want, err := BestResponse(twoProviderScenario(3, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	totals := make([]float64, 2)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			res, err := BestResponse(s, cfg)
			if err == nil {
				totals[g] = res.Total
			}
			errs[2*g] = err
		}(g)
		go func(g int) {
			defer wg.Done()
			_, errs[2*g+1] = SolveSocialWelfare(s)
		}(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for g, total := range totals {
		if total != want.Total {
			t.Errorf("concurrent game %d total %v, sequential %v", g, total, want.Total)
		}
	}
}
