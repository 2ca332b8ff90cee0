package core

import (
	"errors"
	"math"
	"testing"
)

// twoByTwo builds a small standard instance: 2 DCs, 2 locations, all pairs
// feasible with a = 1, reconfig weight 1, capacity 100.
func twoByTwo(t *testing.T) *Instance {
	t.Helper()
	inst, err := NewInstance(Config{
		SLA:             [][]float64{{1, 1}, {1, 1}},
		ReconfigWeights: []float64{1, 1},
		Capacities:      []float64{100, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceValid(t *testing.T) {
	inst := twoByTwo(t)
	if inst.NumDataCenters() != 2 || inst.NumLocations() != 2 {
		t.Fatalf("L=%d V=%d", inst.NumDataCenters(), inst.NumLocations())
	}
	if inst.NumPairs() != 4 {
		t.Errorf("pairs = %d, want 4", inst.NumPairs())
	}
	if !inst.Feasible(0, 0) || inst.Feasible(5, 0) || inst.Feasible(0, -1) {
		t.Error("Feasible bounds checks broken")
	}
	a, err := inst.SLACoefficient(1, 1)
	if err != nil || a != 1 {
		t.Errorf("a(1,1) = %g, %v", a, err)
	}
	c, err := inst.Capacity(0)
	if err != nil || c != 100 {
		t.Errorf("Capacity(0) = %g, %v", c, err)
	}
	w, err := inst.ReconfigWeight(1)
	if err != nil || w != 1 {
		t.Errorf("ReconfigWeight(1) = %g, %v", w, err)
	}
}

func TestNewInstanceExcludesInfeasiblePairs(t *testing.T) {
	inst, err := NewInstance(Config{
		SLA:             [][]float64{{1, math.Inf(1)}, {2, 3}},
		ReconfigWeights: []float64{1, 1},
		Capacities:      []float64{math.Inf(1), math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumPairs() != 3 {
		t.Errorf("pairs = %d, want 3", inst.NumPairs())
	}
	if inst.Feasible(0, 1) {
		t.Error("infeasible pair reported feasible")
	}
}

func TestNewInstanceErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"no DCs", Config{}, ErrBadInstance},
		{"no locations", Config{SLA: [][]float64{{}}, ReconfigWeights: []float64{1}, Capacities: []float64{1}}, ErrBadInstance},
		{"weights mismatch", Config{SLA: [][]float64{{1}}, ReconfigWeights: []float64{1, 2}, Capacities: []float64{1}}, ErrBadInstance},
		{"caps mismatch", Config{SLA: [][]float64{{1}}, ReconfigWeights: []float64{1}, Capacities: []float64{1, 2}}, ErrBadInstance},
		{"ragged SLA", Config{SLA: [][]float64{{1, 1}, {1}}, ReconfigWeights: []float64{1, 1}, Capacities: []float64{1, 1}}, ErrBadInstance},
		{"zero weight", Config{SLA: [][]float64{{1}}, ReconfigWeights: []float64{0}, Capacities: []float64{1}}, ErrBadInstance},
		{"zero capacity", Config{SLA: [][]float64{{1}}, ReconfigWeights: []float64{1}, Capacities: []float64{0}}, ErrBadInstance},
		{"negative a", Config{SLA: [][]float64{{-1}}, ReconfigWeights: []float64{1}, Capacities: []float64{1}}, ErrBadInstance},
		{"NaN a", Config{SLA: [][]float64{{math.NaN()}}, ReconfigWeights: []float64{1}, Capacities: []float64{1}}, ErrBadInstance},
		{"orphan location", Config{SLA: [][]float64{{math.Inf(1)}}, ReconfigWeights: []float64{1}, Capacities: []float64{1}}, ErrInfeasible},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewInstance(tc.cfg); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestSLAMatrix(t *testing.T) {
	latency := [][]float64{
		{0.01, 0.30}, // second pair exceeds the 0.25s SLA budget entirely
		{0.05, 0.05},
	}
	m, err := SLAMatrix(latency, SLAConfig{Mu: 10, MaxDelay: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(m[0][0], 1) || !math.IsInf(m[0][1], 1) {
		t.Errorf("matrix = %v", m)
	}
	want := 1 / (10 - 1/(0.25-0.05))
	if math.Abs(m[1][1]-want) > 1e-12 {
		t.Errorf("a = %g, want %g", m[1][1], want)
	}
	if _, err := SLAMatrix(nil, SLAConfig{Mu: 10, MaxDelay: 1}); !errors.Is(err, ErrBadInstance) {
		t.Errorf("empty latency err = %v", err)
	}
	if _, err := SLAMatrix(latency, SLAConfig{Mu: 0, MaxDelay: 1}); err == nil {
		t.Error("bad mu accepted")
	}
}

func TestStateHelpers(t *testing.T) {
	inst := twoByTwo(t)
	s := inst.NewState()
	if err := inst.CheckState(s); err != nil {
		t.Fatal(err)
	}
	s[0][0] = 3
	s[1][1] = 4
	if got := s.Total(); got != 7 {
		t.Errorf("Total = %g", got)
	}
	byDC := s.TotalByDC()
	if byDC[0] != 3 || byDC[1] != 4 {
		t.Errorf("TotalByDC = %v", byDC)
	}
	c := s.Clone()
	c[0][0] = 99
	if s[0][0] != 3 {
		t.Error("Clone aliases")
	}
}

func TestCheckStateErrors(t *testing.T) {
	inst := twoByTwo(t)
	if err := inst.CheckState(State{{1, 1}}); !errors.Is(err, ErrBadInput) {
		t.Errorf("wrong rows err = %v", err)
	}
	if err := inst.CheckState(State{{1}, {1}}); !errors.Is(err, ErrBadInput) {
		t.Errorf("wrong cols err = %v", err)
	}
	if err := inst.CheckState(State{{-1, 0}, {0, 0}}); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative err = %v", err)
	}
	if err := inst.CheckState(State{{math.NaN(), 0}, {0, 0}}); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN err = %v", err)
	}
	// Positive allocation on an infeasible pair.
	inst2, err := NewInstance(Config{
		SLA:             [][]float64{{1, math.Inf(1)}, {1, 1}},
		ReconfigWeights: []float64{1, 1},
		Capacities:      []float64{10, 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := inst2.NewState()
	bad[0][1] = 1
	if err := inst2.CheckState(bad); !errors.Is(err, ErrBadInput) {
		t.Errorf("infeasible-pair state err = %v", err)
	}
}

func TestPeriodCost(t *testing.T) {
	inst := twoByTwo(t)
	x := inst.NewState()
	x[0][0] = 2
	x[1][0] = 3
	u := inst.NewState()
	u[0][0] = 2 // cost 1·4
	cb, err := inst.PeriodCost(x, u, []float64{10, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cb.Resource != 23 {
		t.Errorf("Resource = %g, want 23", cb.Resource)
	}
	if cb.Reconfig != 4 {
		t.Errorf("Reconfig = %g, want 4", cb.Reconfig)
	}
	if cb.Total() != 27 {
		t.Errorf("Total = %g, want 27", cb.Total())
	}
	// nil control means zero reconfiguration cost.
	cb, err = inst.PeriodCost(x, nil, []float64{10, 1})
	if err != nil || cb.Reconfig != 0 {
		t.Errorf("nil control: %+v, %v", cb, err)
	}
	if _, err := inst.PeriodCost(x, u, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("price mismatch err = %v", err)
	}
	if _, err := inst.PeriodCost(x, State{{1, 1}}, []float64{1, 1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("control shape err = %v", err)
	}
}
