package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"dspp/internal/game"
)

// PoAResult estimates the price of anarchy empirically: the worst
// ε-stable outcome Algorithm 2 reaches from adversarial initial quota
// splits, relative to the social optimum. Theorem 1 only pins the *best*
// equilibrium (PoS = 1); the spread between best and worst starts is the
// cost of bad coordination.
type PoAResult struct {
	Starts     int
	BestRatio  float64
	WorstRatio float64
	Table      *Table
}

// PriceOfAnarchy runs Algorithm 2 from the fair split plus several skewed
// initial quota allocations and reports the best/worst converged cost
// against the joint social optimum.
func PriceOfAnarchy(seed int64, starts int) (*PoAResult, error) {
	if starts < 2 {
		starts = 6
	}
	rng := rand.New(rand.NewSource(seed))
	scen := gameScenario(rng, 4, 3, 150)
	swp, err := game.SolveSocialWelfare(scen)
	if err != nil {
		return nil, fmt.Errorf("swp: %w", err)
	}
	n := len(scen.Providers)
	res := &PoAResult{
		Starts:     starts,
		BestRatio:  1e18,
		WorstRatio: 0,
		Table: &Table{
			Title:   "Extension: empirical price of anarchy over initial quota splits",
			Columns: []string{"start", "NE/SWP", "iterations", "converged"},
		},
	}
	for s := 0; s < starts; s++ {
		cfg := gameBRConfig(150)
		cfg.Epsilon = 0.01
		label := "fair"
		if s > 0 {
			// Skewed start: exponential-ish random weights, so one
			// provider often begins with most of the bottleneck.
			init := make([][]float64, n)
			for i := range init {
				init[i] = []float64{0.01 + rng.ExpFloat64(), 1}
			}
			cfg.InitialQuotas = init
			label = fmt.Sprintf("skew%d", s)
		}
		br, err := game.BestResponse(scen, cfg)
		if err != nil && !errors.Is(err, game.ErrNotConverged) {
			return nil, fmt.Errorf("start %d: %w", s, err)
		}
		ratio, err := game.EfficiencyRatio(br, swp)
		if err != nil {
			return nil, err
		}
		if ratio < res.BestRatio {
			res.BestRatio = ratio
		}
		if ratio > res.WorstRatio {
			res.WorstRatio = ratio
		}
		res.Table.AddRow(label, f4(ratio), itoa(br.Iterations), fmt.Sprintf("%v", br.Converged))
	}
	return res, nil
}

// Check verifies PoS ≈ 1 from the best start — never below 1 beyond
// solver tolerance, since no equilibrium beats the social optimum — and
// that no start strays absurdly far (the quota renormalization keeps
// outcomes bounded).
func (r *PoAResult) Check() error {
	if r.BestRatio > 1.10 || r.BestRatio < 1-1e-6 {
		return fmt.Errorf("best ratio %g, want ≈ 1 (Theorem 1): %w", r.BestRatio, ErrShape)
	}
	if r.WorstRatio < r.BestRatio {
		return fmt.Errorf("worst %g below best %g: %w", r.WorstRatio, r.BestRatio, ErrShape)
	}
	if r.WorstRatio > 3 {
		return fmt.Errorf("worst ratio %g unreasonably large: %w", r.WorstRatio, ErrShape)
	}
	return nil
}
