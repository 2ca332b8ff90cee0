package game

import (
	"math"
	"testing"
)

// benchScenario is a mid-size competition: 3 providers, 2 DCs with a
// binding bottleneck, window w — enough rounds to exercise the
// best-response loop's steady state without dominating setup.
func benchScenario(w int) *Scenario {
	mk := func(name string, demand, sla0, sla1 float64) *Provider {
		dem := make([][]float64, w)
		pr := make([][]float64, w)
		for t := 0; t < w; t++ {
			dem[t] = []float64{demand * (1 + 0.05*float64(t%3))}
			pr[t] = []float64{0.1, 1.0}
		}
		return &Provider{
			Name:            name,
			SLA:             [][]float64{{sla0}, {sla1}},
			ReconfigWeights: []float64{1e-4, 1e-4},
			ServerSize:      1,
			Demand:          dem,
			Prices:          pr,
		}
	}
	return &Scenario{
		Capacity: []float64{12, math.Inf(1)},
		Providers: []*Provider{
			mk("sp1", 1000, 0.010, 0.010),
			mk("sp2", 1500, 0.012, 0.009),
			mk("sp3", 800, 0.008, 0.011),
		},
	}
}

// benchBestResponse runs the full game once per iteration; the scenario
// is rebuilt outside the timed region each pass so provider-level caches
// never leak across iterations. ns/op is a whole multi-round game.
func benchBestResponse(b *testing.B, cfg BestResponseConfig) {
	cfg.Epsilon = 0.001
	scens := make([]*Scenario, b.N)
	for i := range scens {
		scens[i] = benchScenario(4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := BestResponse(scens[i], cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkBestResponseRounds measures the default (session-backed)
// round loop.
func BenchmarkBestResponseRounds(b *testing.B) {
	benchBestResponse(b, BestResponseConfig{Parallel: 1})
}
