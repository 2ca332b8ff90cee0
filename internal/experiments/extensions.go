package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"dspp/internal/game"
	"dspp/internal/queue"
)

// RecedingGameResult is the closed-loop competition experiment.
type RecedingGameResult struct {
	Periods     int
	PeakUsage   float64
	Capacity    float64
	TotalCost   float64
	MeanRounds  float64
	AllConverge bool
	Table       *Table
}

// GameRecedingHorizon runs the W-MPC competition (Definition 2) in closed
// loop over a day of sinusoidal demand: three providers share a cheap
// bottleneck DC, re-running Algorithm 2 every period.
func GameRecedingHorizon(seed int64) (*RecedingGameResult, error) {
	const periods = 12
	const window = 3
	rng := rand.New(rand.NewSource(seed))
	providers := make([]*game.DynamicProvider, 3)
	for i := range providers {
		level := 2000 + rng.Float64()*4000
		phase := rng.Float64() * 2 * math.Pi
		demand := make([][]float64, periods+window+1)
		prices := make([][]float64, periods+window+1)
		for k := range demand {
			wave := 1 + 0.4*math.Sin(2*math.Pi*float64(k)/12+phase)
			demand[k] = []float64{level * wave}
			prices[k] = []float64{0.02, 0.12}
		}
		providers[i] = &game.DynamicProvider{
			Name:            fmt.Sprintf("sp%d", i+1),
			SLA:             [][]float64{{0.008 + rng.Float64()*0.01}, {0.008 + rng.Float64()*0.01}},
			ReconfigWeights: []float64{5e-5, 5e-5},
			ServerSize:      float64(int(1) << rng.Intn(2)),
			Demand:          demand,
			Prices:          prices,
		}
	}
	const capacity = 80.0
	res, err := game.RunReceding([]float64{capacity, math.Inf(1)}, providers, game.RecedingConfig{
		Window:  window,
		Periods: periods,
		BestResponse: game.BestResponseConfig{
			Alpha: 80, StepDecay: 1, Epsilon: 0.03, MaxIterations: 600,
		},
	})
	if err != nil {
		return nil, err
	}
	usage, err := res.CapacityUsage(providers, 0)
	if err != nil {
		return nil, err
	}
	out := &RecedingGameResult{
		Periods:     periods,
		Capacity:    capacity,
		TotalCost:   res.Total,
		AllConverge: true,
		Table: &Table{
			Title:   "Extension: closed-loop W-MPC competition (Def. 2)",
			Columns: []string{"period", "bottleneck usage", "rounds", "converged"},
		},
	}
	var roundsSum int
	for k := range usage {
		if usage[k] > out.PeakUsage {
			out.PeakUsage = usage[k]
		}
		roundsSum += res.Rounds[k]
		if !res.Converged[k] {
			out.AllConverge = false
		}
		out.Table.AddRow(itoa(k+1), f1(usage[k]), itoa(res.Rounds[k]), fmt.Sprintf("%v", res.Converged[k]))
	}
	out.MeanRounds = float64(roundsSum) / float64(periods)
	return out, nil
}

// Check verifies the closed loop: shared capacity never violated, every
// period's equilibrium computation converged.
func (r *RecedingGameResult) Check() error {
	if r.PeakUsage > r.Capacity*(1+1e-4) {
		return fmt.Errorf("peak usage %g exceeds capacity %g: %w", r.PeakUsage, r.Capacity, ErrShape)
	}
	if !r.AllConverge {
		return fmt.Errorf("some periods did not reach ε-stability: %w", ErrShape)
	}
	if r.TotalCost <= 0 {
		return fmt.Errorf("total cost %g: %w", r.TotalCost, ErrShape)
	}
	return nil
}

// PoolingResult quantifies the conservatism of the paper's split-demand
// M/M/1 provisioning rule against pooled M/M/c provisioning.
type PoolingResult struct {
	Demand []float64
	Split  []float64 // servers under x = a·σ (rounded up)
	Pooled []int     // servers under Erlang-C
	Table  *Table
}

// ExtensionPooling sweeps demand levels and compares the paper's
// provisioning rule with the statistically multiplexed optimum.
func ExtensionPooling() (*PoolingResult, error) {
	params := queue.SLAParams{Mu: 250, NetworkDelay: 0.02, MaxDelay: 0.25}
	res := &PoolingResult{
		Table: &Table{
			Title:   "Extension: split M/M/1 (paper) vs pooled M/M/c provisioning",
			Columns: []string{"demand(req/s)", "split servers", "pooled servers"},
		},
	}
	for _, sigma := range []float64{100, 500, 2000, 10000, 50000} {
		split, err := params.RequiredServers(sigma)
		if err != nil {
			return nil, err
		}
		pooled, err := params.RequiredServersPooled(sigma)
		if err != nil {
			return nil, err
		}
		res.Demand = append(res.Demand, sigma)
		res.Split = append(res.Split, math.Ceil(split))
		res.Pooled = append(res.Pooled, pooled)
		res.Table.AddRow(f1(sigma), f1(math.Ceil(split)), itoa(pooled))
	}
	return res, nil
}

// Check verifies pooling never needs more servers and that the gap closes
// in relative terms as demand grows (economies of scale).
func (r *PoolingResult) Check() error {
	for i := range r.Demand {
		if float64(r.Pooled[i]) > r.Split[i]+1e-9 {
			return fmt.Errorf("demand %g: pooled %d > split %g: %w",
				r.Demand[i], r.Pooled[i], r.Split[i], ErrShape)
		}
	}
	firstGap := (r.Split[0] - float64(r.Pooled[0])) / r.Split[0]
	lastGap := (r.Split[len(r.Split)-1] - float64(r.Pooled[len(r.Pooled)-1])) / r.Split[len(r.Split)-1]
	if lastGap > firstGap+0.05 {
		return fmt.Errorf("relative pooling gain grew from %g to %g with scale: %w",
			firstGap, lastGap, ErrShape)
	}
	return nil
}
