package core

import (
	"fmt"
	"math"
	"testing"

	"dspp/internal/qp"
)

// benchInstance builds an L×V all-feasible instance.
func benchInstance(b testing.TB, l, v int) *Instance {
	b.Helper()
	sla := make([][]float64, l)
	weights := make([]float64, l)
	caps := make([]float64, l)
	for i := 0; i < l; i++ {
		sla[i] = make([]float64, v)
		for j := 0; j < v; j++ {
			sla[i][j] = 0.004 + 0.0001*float64(i+j)
		}
		weights[i] = 1e-4
		caps[i] = math.Inf(1)
	}
	inst, err := NewInstance(Config{SLA: sla, ReconfigWeights: weights, Capacities: caps})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkControllerStep measures one MPC period across problem sizes:
// the figure that tells a user how big an (L, V, W) they can run online.
func BenchmarkControllerStep(b *testing.B) {
	for _, sz := range []struct{ l, v, w int }{
		{1, 1, 5}, {2, 4, 5}, {4, 8, 5}, {4, 8, 10}, {4, 24, 5},
	} {
		b.Run(fmt.Sprintf("L%d_V%d_W%d", sz.l, sz.v, sz.w), func(b *testing.B) {
			inst := benchInstance(b, sz.l, sz.v)
			ctrl, err := NewController(inst, sz.w)
			if err != nil {
				b.Fatal(err)
			}
			demand := make([][]float64, sz.w)
			prices := make([][]float64, sz.w)
			for t := range demand {
				demand[t] = make([]float64, sz.v)
				prices[t] = make([]float64, sz.l)
				for j := range demand[t] {
					demand[t][j] = 1000 + 50*float64(t+j)
				}
				for j := range prices[t] {
					prices[t][j] = 0.05 + 0.01*float64(j)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctrl.Step(demand, prices); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssign measures the request-router policy (eq. 13), which runs
// on the data path rather than the control path.
func BenchmarkAssign(b *testing.B) {
	inst := benchInstance(b, 4, 24)
	x := inst.NewState()
	demand := make([]float64, 24)
	for v := 0; v < 24; v++ {
		demand[v] = 500
		for l := 0; l < 4; l++ {
			x[l][v] = 3
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Assign(x, demand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHorizonSessionWarmSolve measures one warm horizon solve on a
// reused session, the receding-horizon shape an MPC step runs: each solve
// starts from the previous plan's first state, seeded by its capsule
// shifted one period.
func BenchmarkHorizonSessionWarmSolve(b *testing.B) {
	inst := benchInstance(b, 3, 6)
	demand := make([][]float64, 6)
	prices := make([][]float64, 6)
	for t := range demand {
		demand[t] = []float64{900, 800, 700, 600, 500, 400}
		prices[t] = []float64{0.05, 0.06, 0.07}
	}
	ses, err := inst.NewHorizonSession(len(demand), qp.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	in := HorizonInput{X0: inst.NewState(), Demand: demand, Prices: prices, WarmShift: 1}
	plan, err := ses.Solve(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.X0, in.Warm = plan.X[0], plan.Warm
		if plan, err = ses.Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}
