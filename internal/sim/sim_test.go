package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dspp/internal/baseline"
	"dspp/internal/core"
	"dspp/internal/predict"
)

func simpleInstance(t *testing.T) *core.Instance {
	t.Helper()
	inst, err := core.NewInstance(core.Config{
		SLA:             [][]float64{{0.01}},
		ReconfigWeights: []float64{1e-3},
		Capacities:      []float64{math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func mpcPolicy(t *testing.T, inst *core.Instance, w int) Policy {
	t.Helper()
	ctrl, err := core.NewController(inst, w)
	if err != nil {
		t.Fatal(err)
	}
	return &MPCPolicy{Ctrl: ctrl}
}

func constTrace(n int, vals []float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = append([]float64(nil), vals...)
	}
	return out
}

func TestRunBasicMPC(t *testing.T) {
	inst := simpleInstance(t)
	cfg := Config{
		Instance:    inst,
		Policy:      mpcPolicy(t, inst, 3),
		DemandTrace: constTrace(12, []float64{1000}),
		PriceTrace:  constTrace(12, []float64{0.5}),
		Periods:     8,
		Horizon:     3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 8 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	if res.SLAViolations != 0 {
		t.Errorf("violations = %d with perfect foresight", res.SLAViolations)
	}
	if !strings.HasPrefix(res.PolicyName, "mpc-w") {
		t.Errorf("policy name = %q", res.PolicyName)
	}
	// Converges to ~10 servers: resource cost ≈ 10·0.5 per period.
	last := res.Steps[7]
	if math.Abs(last.ServersByDC[0]-10) > 0.5 {
		t.Errorf("final servers = %g, want ~10", last.ServersByDC[0])
	}
	if math.Abs(res.TotalCost-(res.TotalResource+res.TotalReconfig)) > 1e-9 {
		t.Error("cost components do not add up")
	}
	series := res.ServersSeries()
	if len(series) != 8 || series[7] != last.ServersByDC[0] {
		t.Errorf("ServersSeries = %v", series)
	}
}

func TestRunTracksDiurnalDemand(t *testing.T) {
	inst := simpleInstance(t)
	// Day profile over 24 periods plus warmup copies.
	trace := make([][]float64, 26)
	for k := range trace {
		h := k % 24
		if h >= 8 && h < 17 {
			trace[k] = []float64{2000}
		} else {
			trace[k] = []float64{200}
		}
	}
	cfg := Config{
		Instance:    inst,
		Policy:      mpcPolicy(t, inst, 2),
		DemandTrace: trace,
		PriceTrace:  constTrace(26, []float64{0.1}),
		Periods:     24,
		Horizon:     2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Allocation at 10am (period 10) ≈ 20, at 2am (period 2) ≈ 2.
	day := res.Steps[9].ServersByDC[0]   // period 10
	night := res.Steps[2].ServersByDC[0] // period 3
	if day < 15 || night > 6 {
		t.Errorf("day %g night %g: allocation not tracking demand", day, night)
	}
}

func TestRunImperfectPredictorCausesViolations(t *testing.T) {
	inst := simpleInstance(t)
	// A surprise spike that persistence cannot anticipate.
	trace := constTrace(12, []float64{100})
	trace[5] = []float64{5000}
	cfgPerfect := Config{
		Instance:    inst,
		Policy:      mpcPolicy(t, inst, 1),
		DemandTrace: trace,
		PriceTrace:  constTrace(12, []float64{0.1}),
		Periods:     10,
		Horizon:     1,
	}
	perfect, err := Run(cfgPerfect)
	if err != nil {
		t.Fatal(err)
	}
	cfgBlind := cfgPerfect
	cfgBlind.Policy = mpcPolicy(t, inst, 1)
	cfgBlind.DemandPredictor = predict.Persistence{}
	blind, err := Run(cfgBlind)
	if err != nil {
		t.Fatal(err)
	}
	if perfect.SLAViolations != 0 {
		t.Errorf("perfect foresight violated SLA %d times", perfect.SLAViolations)
	}
	if blind.SLAViolations == 0 {
		t.Error("persistence predictor should miss the flash crowd")
	}
}

func TestRunWithBaselinePolicies(t *testing.T) {
	inst, err := core.NewInstance(core.Config{
		SLA:             [][]float64{{0.01, 0.02}, {0.02, 0.01}},
		ReconfigWeights: []float64{1e-3, 1e-3},
		Capacities:      []float64{math.Inf(1), math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	demand := constTrace(10, []float64{500, 700})
	prices := constTrace(10, []float64{0.3, 0.4})

	greedy, err := baseline.NewGreedyNearest(inst)
	if err != nil {
		t.Fatal(err)
	}
	static, err := baseline.NewStaticAverage(inst, demand, prices)
	if err != nil {
		t.Fatal(err)
	}
	myopic := mpcPolicy(t, inst, 1)
	lazy, err := baseline.NewLazyThreshold(inst, 1.2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{greedy, static, myopic, lazy} {
		res, err := Run(Config{
			Instance:    inst,
			Policy:      pol,
			DemandTrace: demand,
			PriceTrace:  prices,
			Periods:     6,
			Horizon:     1,
		})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.SLAViolations != 0 {
			t.Errorf("%s: %d violations on constant demand", pol.Name(), res.SLAViolations)
		}
		if res.TotalCost <= 0 {
			t.Errorf("%s: cost %g", pol.Name(), res.TotalCost)
		}
	}
}

func TestRunValidation(t *testing.T) {
	inst := simpleInstance(t)
	good := Config{
		Instance:    inst,
		Policy:      mpcPolicy(t, inst, 1),
		DemandTrace: constTrace(5, []float64{1}),
		PriceTrace:  constTrace(5, []float64{1}),
		Periods:     3,
		Horizon:     1,
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil instance", func(c *Config) { c.Instance = nil }},
		{"nil policy", func(c *Config) { c.Policy = nil }},
		{"zero periods", func(c *Config) { c.Periods = 0 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"short demand", func(c *Config) { c.DemandTrace = c.DemandTrace[:2] }},
		{"short prices", func(c *Config) { c.PriceTrace = c.PriceTrace[:2] }},
		{"demand width", func(c *Config) { c.DemandTrace = constTrace(5, []float64{1, 2}) }},
		{"price width", func(c *Config) { c.PriceTrace = constTrace(5, []float64{1, 2}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mutate(&cfg)
			if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestMPCPolicyLabel(t *testing.T) {
	inst := simpleInstance(t)
	ctrl, err := core.NewController(inst, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := &MPCPolicy{Ctrl: ctrl}
	if p.Name() != "mpc-w4" {
		t.Errorf("Name = %q", p.Name())
	}
	p.Label = "custom"
	if p.Name() != "custom" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.State() == nil {
		t.Error("State nil")
	}
}

func TestResultMaxControl(t *testing.T) {
	inst := simpleInstance(t)
	trace := constTrace(8, []float64{100})
	trace[3] = []float64{3000}
	res, err := Run(Config{
		Instance:    inst,
		Policy:      mpcPolicy(t, inst, 1),
		DemandTrace: trace,
		PriceTrace:  constTrace(8, []float64{0.1}),
		Periods:     6,
		Horizon:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The spike forces a jump of roughly 29 servers.
	if mc := res.MaxControl(); mc < 20 {
		t.Errorf("MaxControl = %g, want ≥ 20", mc)
	}
}

func TestForecastColdStartFallback(t *testing.T) {
	inst := simpleInstance(t)
	// AR(2) needs 6 observations; the first periods must fall back to
	// persistence instead of erroring.
	cfg := Config{
		Instance:        inst,
		Policy:          mpcPolicy(t, inst, 2),
		DemandTrace:     constTrace(14, []float64{800}),
		PriceTrace:      constTrace(14, []float64{0.2}),
		Periods:         10,
		Horizon:         2,
		DemandPredictor: predict.AR{P: 2},
		PricePredictor:  predict.Persistence{},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 10 {
		t.Errorf("steps = %d", len(res.Steps))
	}
}
