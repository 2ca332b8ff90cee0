package baseline

import (
	"errors"
	"math"
	"testing"

	"dspp/internal/core"
)

func twoDCInstance(t *testing.T, caps []float64) *core.Instance {
	t.Helper()
	inst, err := core.NewInstance(core.Config{
		SLA:             [][]float64{{0.01, 0.02}, {0.02, 0.01}},
		ReconfigWeights: []float64{1e-3, 1e-3},
		Capacities:      caps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func forecast(w int, vals []float64) [][]float64 {
	out := make([][]float64, w)
	for i := range out {
		out[i] = append([]float64(nil), vals...)
	}
	return out
}

func TestGreedyNearestRoutesToLowestA(t *testing.T) {
	inst := twoDCInstance(t, []float64{math.Inf(1), math.Inf(1)})
	g, err := NewGreedyNearest(inst)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "greedy-nearest" {
		t.Errorf("Name = %q", g.Name())
	}
	applied, state, err := g.Step(forecast(1, []float64{1000, 2000}), forecast(1, []float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Location 0 → DC0 (a=0.01): 10 servers; location 1 → DC1: 20.
	if math.Abs(state[0][0]-10) > 1e-9 || math.Abs(state[1][1]-20) > 1e-9 {
		t.Errorf("state = %v", state)
	}
	if state[0][1] != 0 || state[1][0] != 0 {
		t.Errorf("leakage to distant DCs: %v", state)
	}
	if math.Abs(applied[0][0]-10) > 1e-9 {
		t.Errorf("applied = %v", applied)
	}
	// Internal state advanced.
	if g.State()[0][0] != state[0][0] {
		t.Error("State() mismatch")
	}
}

func TestGreedyNearestSpillsOnCapacity(t *testing.T) {
	inst := twoDCInstance(t, []float64{5, math.Inf(1)})
	g, err := NewGreedyNearest(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Location 0 needs 10 servers at DC0 but only 5 fit; the rest go to
	// DC1 at a=0.02.
	_, state, err := g.Step(forecast(1, []float64{1000, 0}), forecast(1, []float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(state[0][0]-5) > 1e-9 {
		t.Errorf("DC0 = %g, want 5", state[0][0])
	}
	// Remaining 500 req/s at a=0.02 → 10 servers.
	if math.Abs(state[1][0]-10) > 1e-9 {
		t.Errorf("DC1 = %g, want 10", state[1][0])
	}
	slack, err := inst.DemandSlack(state, []float64{1000, 0})
	if err != nil {
		t.Fatal(err)
	}
	if slack[0] < -1e-9 {
		t.Errorf("demand unmet: slack %g", slack[0])
	}
}

func TestGreedyNearestErrors(t *testing.T) {
	if _, err := NewGreedyNearest(nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil inst err = %v", err)
	}
	inst := twoDCInstance(t, []float64{math.Inf(1), math.Inf(1)})
	g, _ := NewGreedyNearest(inst)
	if _, _, err := g.Step(nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty forecast err = %v", err)
	}
	if _, _, err := g.Step(forecast(1, []float64{1}), forecast(1, []float64{1, 1})); !errors.Is(err, ErrBadConfig) {
		t.Errorf("width err = %v", err)
	}
	// Total capacity too small for the demand: infeasible.
	tiny := twoDCInstance(t, []float64{1, 1})
	g2, _ := NewGreedyNearest(tiny)
	if _, _, err := g2.Step(forecast(1, []float64{10000, 10000}), forecast(1, []float64{1, 1})); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("infeasible err = %v", err)
	}
}

func TestStaticAveragePlacesOnceAndHolds(t *testing.T) {
	inst := twoDCInstance(t, []float64{math.Inf(1), math.Inf(1)})
	demand := [][]float64{{1000, 0}, {3000, 0}, {2000, 0}}
	prices := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	s, err := NewStaticAverage(inst, demand, prices)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "static-average" {
		t.Errorf("Name = %q", s.Name())
	}
	applied1, state1, err := s.Step(forecast(1, []float64{1000, 0}), forecast(1, []float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Average demand 2000 → 20 servers at DC0.
	if math.Abs(state1[0][0]-20) > 0.1 {
		t.Errorf("static placement = %g, want ~20", state1[0][0])
	}
	if applied1[0][0] <= 0 {
		t.Errorf("first step applied = %v", applied1)
	}
	applied2, state2, err := s.Step(forecast(1, []float64{9999, 0}), forecast(1, []float64{5, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if applied2[0][0] != 0 {
		t.Errorf("static policy reconfigured: %v", applied2)
	}
	if state2[0][0] != state1[0][0] {
		t.Error("static policy drifted")
	}
}

func TestStaticAverageErrors(t *testing.T) {
	inst := twoDCInstance(t, []float64{math.Inf(1), math.Inf(1)})
	if _, err := NewStaticAverage(nil, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil inst err = %v", err)
	}
	if _, err := NewStaticAverage(inst, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty traces err = %v", err)
	}
	if _, err := NewStaticAverage(inst, [][]float64{{1}}, [][]float64{{1, 1}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("width err = %v", err)
	}
	if _, err := NewStaticAverage(inst, [][]float64{{1, 1}}, [][]float64{{1}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("price width err = %v", err)
	}
}

func TestLazyThresholdHoldsThenReplans(t *testing.T) {
	inst := twoDCInstance(t, []float64{math.Inf(1), math.Inf(1)})
	p, err := NewLazyThreshold(inst, 1.2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "lazy-threshold" {
		t.Errorf("Name = %q", p.Name())
	}
	// First step: state zero, demand positive → replan.
	_, s1, err := p.Step(forecast(1, []float64{1000, 0}), forecast(1, []float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Total() <= 0 {
		t.Fatal("no initial placement")
	}
	// Small demand wobble within headroom: hold.
	applied, s2, err := p.Step(forecast(1, []float64{1050, 0}), forecast(1, []float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if applied.Total() != 0 {
		t.Errorf("reconfigured inside deadband: %v", applied)
	}
	if s2.Total() != s1.Total() {
		t.Error("state changed while holding")
	}
	// Big spike: must replan.
	applied, s3, err := p.Step(forecast(1, []float64{5000, 0}), forecast(1, []float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if applied.Total() == 0 {
		t.Error("did not react to spike")
	}
	slack, err := inst.DemandSlack(s3, []float64{5000, 0})
	if err != nil {
		t.Fatal(err)
	}
	if slack[0] < -1e-6 {
		t.Errorf("spike unmet: slack %g", slack[0])
	}
	// Demand collapse: headroom above upper bound → scale down.
	applied, _, err = p.Step(forecast(1, []float64{500, 0}), forecast(1, []float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if applied.Total() == 0 {
		t.Error("did not scale down after collapse")
	}
}

func TestLazyThresholdValidation(t *testing.T) {
	inst := twoDCInstance(t, []float64{math.Inf(1), math.Inf(1)})
	if _, err := NewLazyThreshold(nil, 1.2, 2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil inst err = %v", err)
	}
	if _, err := NewLazyThreshold(inst, 0.5, 2); !errors.Is(err, ErrBadConfig) {
		t.Errorf("target<1 err = %v", err)
	}
	if _, err := NewLazyThreshold(inst, 1.5, 1.5); !errors.Is(err, ErrBadConfig) {
		t.Errorf("upper<=target err = %v", err)
	}
	p, _ := NewLazyThreshold(inst, 1.2, 2)
	if _, _, err := p.Step(nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty forecast err = %v", err)
	}
}
