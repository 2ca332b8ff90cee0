package baseline

import (
	"math"
	"testing"

	"dspp/internal/core"
)

func TestIntegerMPCProducesIntegerStates(t *testing.T) {
	inst := twoDCInstance(t, []float64{math.Inf(1), math.Inf(1)})
	p, err := NewIntegerMPC(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "integer-mpc-w2" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.LastOverflow() != nil {
		t.Error("overflow before first step")
	}
	demands := [][]float64{{1234, 777}, {2222, 777}, {555, 777}}
	for _, d := range demands {
		_, state, err := p.Step(forecast(2, d), forecast(2, []float64{0.3, 0.5}))
		if err != nil {
			t.Fatal(err)
		}
		for l := range state {
			for v := range state[l] {
				if frac := math.Abs(state[l][v] - math.Round(state[l][v])); frac > 1e-9 {
					t.Fatalf("non-integer allocation %g", state[l][v])
				}
			}
		}
		// Demand still met after rounding (round-up never loses capacity).
		slack, err := inst.DemandSlack(state, d)
		if err != nil {
			t.Fatal(err)
		}
		for v, s := range slack {
			if s < -1e-6 {
				t.Errorf("location %d slack %g after rounding", v, s)
			}
		}
		for _, o := range p.LastOverflow() {
			if o != 0 {
				t.Errorf("unexpected overflow %g with infinite capacity", o)
			}
		}
	}
	if p.State()[0][0] != math.Round(p.State()[0][0]) {
		t.Error("internal state not integral")
	}
}

func TestIntegerMPCIntegralityGapSmall(t *testing.T) {
	// Paper §IV argument: with tens of servers the relative cost gap of
	// rounding is small. Compare total server-hours over a short run.
	inst := twoDCInstance(t, []float64{math.Inf(1), math.Inf(1)})
	intPolicy, err := NewIntegerMPC(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	var intTotal, contTotal float64
	cont, err := core.NewController(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		d := []float64{3000 + 500*float64(k%3), 2000}
		_, si, err := intPolicy.Step(forecast(2, d), forecast(2, []float64{0.3, 0.5}))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := cont.Step(forecast(1, d), forecast(1, []float64{0.3, 0.5}))
		if err != nil {
			t.Fatal(err)
		}
		intTotal += si.Total()
		contTotal += sc.NewState.Total()
	}
	if intTotal < contTotal {
		t.Errorf("integer total %g below continuous %g (rounding up cannot shrink)", intTotal, contTotal)
	}
	gap := (intTotal - contTotal) / contTotal
	if gap > 0.10 {
		t.Errorf("integrality gap %g > 10%% at tens-of-servers scale", gap)
	}
}
