// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VII, Figs. 3–10 — Table I is notation only) plus the
// ablations listed in DESIGN.md. Each benchmark regenerates its figure's
// data series through internal/experiments, validates the qualitative
// shape against the paper's claim, and reports headline numbers as
// benchmark metrics.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The same series can be printed as tables with `go run ./cmd/experiments`.
package dspp_test

import (
	"testing"

	"dspp/internal/experiments"
)

const benchSeed = 2012

// BenchmarkFig3Prices regenerates the Fig. 3 input: diurnal electricity
// prices for the four DC regions.
func BenchmarkFig3Prices(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3Prices()
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		spread = r.PriceMWh[0][17] - r.PriceMWh[1][17] // CA−TX at 5pm
	}
	b.ReportMetric(spread, "CA-TX@5pm_$/MWh")
}

// BenchmarkFig4DemandTracking regenerates Fig. 4: single-DC allocation
// tracking the diurnal demand curve.
func BenchmarkFig4DemandTracking(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4DemandTracking(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, s := range r.Servers {
			if s > peak {
				peak = s
			}
		}
	}
	b.ReportMetric(peak, "peak_servers")
}

// BenchmarkFig5PriceShifting regenerates Fig. 5: load migrating from
// Mountain View to Houston as the CA price peaks.
func BenchmarkFig5PriceShifting(b *testing.B) {
	var mvDip float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5PriceShifting()
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		mvDip = r.Servers[0][2] - r.Servers[0][17] // night minus 5pm
	}
	b.ReportMetric(mvDip, "MV_night-minus-5pm_servers")
}

// BenchmarkFig6HorizonSmoothing regenerates Fig. 6: longer horizons give
// smaller per-period allocation changes.
func BenchmarkFig6HorizonSmoothing(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6HorizonSmoothing(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		ratio = r.MaxStep[0] / r.MaxStep[len(r.MaxStep)-1]
	}
	b.ReportMetric(ratio, "maxstep_K1_over_K30")
}

// BenchmarkFig7GameConvergence regenerates Fig. 7: Algorithm 2 iterations
// versus number of players for bottleneck capacities 100/200/300.
func BenchmarkFig7GameConvergence(b *testing.B) {
	b.ReportAllocs()
	var meanTight float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7GameConvergence(benchSeed, 10)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		var sum int
		for _, it := range r.Iterations[0] {
			sum += it
		}
		meanTight = float64(sum) / float64(len(r.Iterations[0]))
	}
	b.ReportMetric(meanTight, "mean_iters_cap100")
}

// BenchmarkFig8HorizonVsIterations regenerates Fig. 8: longer prediction
// horizons converge in fewer best-response rounds.
func BenchmarkFig8HorizonVsIterations(b *testing.B) {
	var first, last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8HorizonVsIterations(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		first = float64(r.Iterations[0])
		last = float64(r.Iterations[len(r.Iterations)-1])
	}
	b.ReportMetric(first, "iters_W1")
	b.ReportMetric(last, "iters_W10")
}

// BenchmarkFig9HorizonVsCost regenerates Fig. 9: under volatile demand
// and AR forecasts, cost is U-shaped in the horizon with a short optimum.
func BenchmarkFig9HorizonVsCost(b *testing.B) {
	b.ReportAllocs()
	var bestW float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9HorizonVsCost(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.CheckFig9(); err != nil {
			b.Fatal(err)
		}
		best := r.Cost[0]
		bestW = 1
		for j, c := range r.Cost {
			if c < best {
				best, bestW = c, float64(r.Horizons[j])
			}
		}
	}
	b.ReportMetric(bestW, "best_horizon")
}

// BenchmarkFig10ConstantHorizon regenerates Fig. 10: with constant
// (perfectly predictable) demand and prices, cost improves monotonically
// with the horizon.
func BenchmarkFig10ConstantHorizon(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10ConstantHorizon()
		if err != nil {
			b.Fatal(err)
		}
		if err := r.CheckFig10(); err != nil {
			b.Fatal(err)
		}
		improvement = (r.Cost[0] - r.Cost[len(r.Cost)-1]) / r.Cost[0]
	}
	b.ReportMetric(improvement*100, "W10_vs_W1_improvement_%")
}

// BenchmarkTheorem1PriceOfStability verifies §VI's Theorem 1 numerically:
// the equilibrium computed by Algorithm 2 attains the social optimum.
func BenchmarkTheorem1PriceOfStability(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.PriceOfStability(benchSeed, 5)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, ratio := range r.Ratio {
			if ratio > worst {
				worst = ratio
			}
		}
	}
	b.ReportMetric(worst, "worst_NE/SWP")
}

// BenchmarkAblationReconfigWeight sweeps the quadratic penalty c (§IV-A):
// movement shrinks, cost grows.
func BenchmarkAblationReconfigWeight(b *testing.B) {
	var damping float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationReconfigWeight(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		damping = r.TotalMove[0] / r.TotalMove[len(r.TotalMove)-1]
	}
	b.ReportMetric(damping, "movement_c1e-6_over_c1e-2")
}

// BenchmarkAblationBaselines compares the MPC controller against
// static/greedy/myopic/lazy policies.
func BenchmarkAblationBaselines(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationBaselines(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		var mpc, worstClean float64
		for j, name := range r.Policies {
			if name == "mpc-w5" {
				mpc = r.Cost[j]
			} else if r.Violations[j] == 0 && r.Cost[j] > worstClean {
				worstClean = r.Cost[j]
			}
		}
		advantage = worstClean / mpc
	}
	b.ReportMetric(advantage, "worst_clean_baseline_over_mpc")
}

// BenchmarkAblationPercentileSLA probes the §IV-B φ-percentile factor.
func BenchmarkAblationPercentileSLA(b *testing.B) {
	var premium float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPercentileSLA()
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		premium = r.Cost[1] / r.Cost[0]
	}
	b.ReportMetric(premium, "p95_cost_over_mean")
}

// BenchmarkAblationReservationRatio probes the §IV-B capacity cushion
// under imperfect forecasts.
func BenchmarkAblationReservationRatio(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationReservationRatio(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		saved = float64(r.Violations[0] - r.Violations[len(r.Violations)-1])
	}
	b.ReportMetric(saved, "violations_avoided_r1.5")
}

// BenchmarkAblationGameStepSize probes the Algorithm 2 quota step and its
// diminishing schedule.
func BenchmarkAblationGameStepSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationGameStepSize(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFFDExactness verifies §VI's exact-capacity packing
// claim for divisible (GoGrid-style) VM sizes.
func BenchmarkAblationFFDExactness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationFFDExactness(benchSeed, 100)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateMM1Model cross-checks the closed-form M/M/1 SLA model
// against the discrete-event simulator.
func BenchmarkValidateMM1Model(b *testing.B) {
	var relErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ValidateMM1Model(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		relErr = r.ModelRelError
	}
	b.ReportMetric(relErr*100, "model_rel_err_%")
}

// BenchmarkGameRecedingHorizon runs the closed-loop W-MPC competition
// (Definition 2): per-period equilibria, shared capacity respected.
func BenchmarkGameRecedingHorizon(b *testing.B) {
	var rounds float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.GameRecedingHorizon(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		rounds = r.MeanRounds
	}
	b.ReportMetric(rounds, "mean_rounds_per_period")
}

// BenchmarkExtensionPooling quantifies the conservatism of the paper's
// split-demand M/M/1 provisioning rule against pooled M/M/c.
func BenchmarkExtensionPooling(b *testing.B) {
	var gapPct float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionPooling()
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		last := len(r.Demand) - 1
		gapPct = 100 * (r.Split[last] - float64(r.Pooled[last])) / r.Split[last]
	}
	b.ReportMetric(gapPct, "pooling_gain_at_50k_%")
}

// BenchmarkValidateEndToEnd replays the controller's peak-hour plan at
// request granularity through per-server M/M/1 queues.
func BenchmarkValidateEndToEnd(b *testing.B) {
	var within float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.EndToEndLatency(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		within = r.WithinSLA
	}
	b.ReportMetric(within*100, "requests_within_SLA_%")
}

// BenchmarkAblationIntegerRounding measures the integrality gap of the
// round-up integer MPC (the paper's §VIII future-work item).
func BenchmarkAblationIntegerRounding(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationIntegerRounding(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		gap = r.GapPct
	}
	b.ReportMetric(gap, "integrality_gap_%")
}

// BenchmarkPriceOfAnarchy probes the equilibrium set from adversarial
// initial quota splits: best ratio ≈ 1 (Theorem 1), worst bounded.
func BenchmarkPriceOfAnarchy(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.PriceOfAnarchy(benchSeed, 6)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		worst = r.WorstRatio
	}
	b.ReportMetric(worst, "worst_start_NE/SWP")
}

// BenchmarkPredictorShootout compares forecasting schemes (RMSE, bias)
// and their downstream controller cost on the diurnal workload.
func BenchmarkPredictorShootout(b *testing.B) {
	var seasonalGain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.PredictorShootout(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		var persistence, seasonal float64
		for j, n := range r.Names {
			switch n {
			case "persistence":
				persistence = r.RMSE[j]
			case "seasonal-24":
				seasonal = r.RMSE[j]
			}
		}
		seasonalGain = persistence / seasonal
	}
	b.ReportMetric(seasonalGain, "persistence_over_seasonal_RMSE")
}

// BenchmarkExtensionSpotPricing measures the cost saving of dynamic
// (spot) pricing over flat peak on-demand pricing for the same workload —
// the paper's §I motivation for dynamic pricing in public clouds.
func BenchmarkExtensionSpotPricing(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionSpotPricing(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Check(); err != nil {
			b.Fatal(err)
		}
		saving = r.SavingPct
	}
	b.ReportMetric(saving, "spot_saving_vs_flat_%")
}
