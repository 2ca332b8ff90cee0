package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dspp/internal/game"
	"dspp/internal/parallel"
)

// randomProvider draws a provider with randomized (μ, D, s, c, d̄) as in
// §VII-B: one customer location, two data centers (DC0 is the cheap
// bottleneck, DC1 the expensive overflow).
func randomProvider(rng *rand.Rand, name string, window int) *game.Provider {
	mu := 150 + rng.Float64()*200     // service rate
	dbar := 0.15 + rng.Float64()*0.2  // SLA bound
	lat0 := 0.02 + rng.Float64()*0.03 // latency to DC0
	lat1 := 0.02 + rng.Float64()*0.03 // latency to DC1
	a0 := 1 / (mu - 1/(dbar-lat0))    // eq. 10
	a1 := 1 / (mu - 1/(dbar-lat1))
	size := float64(int(1) << rng.Intn(3)) // s ∈ {1,2,4} (GoGrid-style)
	c := 1e-5 + rng.Float64()*1e-4         // reconfig weight
	level := 2000 + rng.Float64()*6000     // demand
	demand := make([][]float64, window)
	prices := make([][]float64, window)
	for t := 0; t < window; t++ {
		demand[t] = []float64{level * (0.9 + 0.2*rng.Float64())}
		prices[t] = []float64{0.02, 0.12} // DC0 six times cheaper
	}
	return &game.Provider{
		Name:            name,
		SLA:             [][]float64{{a0}, {a1}},
		ReconfigWeights: []float64{c, c},
		ServerSize:      size,
		Demand:          demand,
		Prices:          prices,
	}
}

// gameScenario assembles an n-player scenario with the given bottleneck
// capacity (capacity units) at the cheap DC.
func gameScenario(rng *rand.Rand, n, window int, bottleneck float64) *game.Scenario {
	providers := make([]*game.Provider, n)
	for i := range providers {
		providers[i] = randomProvider(rng, fmt.Sprintf("sp%d", i+1), window)
	}
	return &game.Scenario{
		Capacity:  []float64{bottleneck, math.Inf(1)},
		Providers: providers,
	}
}

// gameBRConfig is the Algorithm 2 configuration used by the game
// experiments: ε = 0.05 per the paper; the quota step is aggressive with
// a diminishing-step schedule (dual subgradient), which reproduces the
// paper's slow, oscillation-damped convergence under tight capacity.
func gameBRConfig(bottleneck float64) game.BestResponseConfig {
	return game.BestResponseConfig{
		Alpha:         100,
		StepDecay:     0.3,
		Epsilon:       0.05,
		MaxIterations: 1000,
	}
}

// Fig7Result holds the convergence-rate sweep of Fig. 7.
type Fig7Result struct {
	Players    []int
	Capacities []float64
	Iterations [][]int // [capacity][players]
	Table      *Table
}

// Fig7GameConvergence reproduces Fig. 7: iterations of Algorithm 2 to an
// approximately stable outcome versus the number of players, for
// bottleneck capacities 100/200/300 at the cheapest DC.
func Fig7GameConvergence(seed int64, maxPlayers int) (*Fig7Result, error) {
	if maxPlayers < 1 {
		maxPlayers = 10
	}
	capacities := []float64{100, 200, 300}
	res := &Fig7Result{
		Capacities: capacities,
		Iterations: make([][]int, len(capacities)),
		Table: &Table{
			Title:   "Fig 7: Algorithm 2 iterations vs number of players",
			Columns: []string{"players", "cap=100", "cap=200", "cap=300"},
		},
	}
	for n := 1; n <= maxPlayers; n++ {
		res.Players = append(res.Players, n)
	}
	// Every (capacity, players, rep) cell draws from its own seeded RNG, so
	// the cells are independent: fan out over the flattened grid and write
	// each mean into its index-addressed slot.
	const seedsPerCell = 3
	for ci := range capacities {
		res.Iterations[ci] = make([]int, maxPlayers)
	}
	cells := len(capacities) * maxPlayers
	err := parallel.ForEach(cells, 0, func(cell int) error {
		ci, n := cell/maxPlayers, cell%maxPlayers+1
		c := capacities[ci]
		total := 0
		for rep := 0; rep < seedsPerCell; rep++ {
			rng := rand.New(rand.NewSource(seed + int64(n)*101 + int64(rep)*977))
			s := gameScenario(rng, n, 3, c)
			// The sweep already fans out over cells, so each game plays
			// its rounds on one worker; its result does not depend on
			// the worker count.
			cfg := gameBRConfig(c)
			cfg.Parallel = 1
			br, err := game.BestResponse(s, cfg)
			if err != nil && !errors.Is(err, game.ErrNotConverged) {
				return fmt.Errorf("cap=%g n=%d: %w", c, n, err)
			}
			total += br.Iterations
		}
		res.Iterations[ci][n-1] = total / seedsPerCell
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range res.Players {
		res.Table.AddRow(itoa(n),
			itoa(res.Iterations[0][i]),
			itoa(res.Iterations[1][i]),
			itoa(res.Iterations[2][i]))
	}
	return res, nil
}

// Check verifies Fig. 7's shape: averaged over player counts, tighter
// bottlenecks take at least as many rounds, and many players take more
// rounds than a single player.
func (r *Fig7Result) Check() error {
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	m100, m300 := mean(r.Iterations[0]), mean(r.Iterations[2])
	if m100 < m300 {
		return fmt.Errorf("cap=100 mean %.1f < cap=300 mean %.1f: %w", m100, m300, ErrShape)
	}
	last := len(r.Players) - 1
	if r.Iterations[0][last] <= r.Iterations[0][0] {
		return fmt.Errorf("cap=100: %d players (%d iters) not slower than 1 player (%d): %w",
			r.Players[last], r.Iterations[0][last], r.Iterations[0][0], ErrShape)
	}
	return nil
}

// Fig8Result holds the horizon-vs-iterations sweep of Fig. 8.
type Fig8Result struct {
	Horizons   []int
	Iterations []int
	Table      *Table
}

// Fig8HorizonVsIterations reproduces Fig. 8: a longer prediction horizon
// speeds up the convergence of Algorithm 2 (from ~55 rounds at W=1 down
// to ~33 at W=10 in the paper).
func Fig8HorizonVsIterations(seed int64) (*Fig8Result, error) {
	res := &Fig8Result{
		Table: &Table{
			Title:   "Fig 8: Algorithm 2 iterations vs prediction horizon",
			Columns: []string{"W", "iterations"},
		},
	}
	const players = 5
	const bottleneck = 150.0
	const seedsPerCell = 9
	for w := 1; w <= 10; w++ {
		total := 0
		for rep := 0; rep < seedsPerCell; rep++ {
			rng := rand.New(rand.NewSource(seed + int64(rep)*977))
			s := gameScenario(rng, players, w, bottleneck)
			// Duals sum over the horizon, so the quota step is normalized
			// per period: the averaging across a longer window smooths the
			// dual signal, which is what speeds convergence.
			cfg := gameBRConfig(bottleneck)
			cfg.Alpha = cfg.Alpha * 3 / float64(w)
			br, err := game.BestResponse(s, cfg)
			if err != nil && !errors.Is(err, game.ErrNotConverged) {
				return nil, fmt.Errorf("W=%d: %w", w, err)
			}
			total += br.Iterations
		}
		res.Horizons = append(res.Horizons, w)
		res.Iterations = append(res.Iterations, total/seedsPerCell)
		res.Table.AddRow(itoa(w), itoa(total/seedsPerCell))
	}
	return res, nil
}

// Check verifies Fig. 8's trend robustly: the long-horizon half of the
// sweep converges in no more rounds on average than the short-horizon
// half (individual points are noisy, in the paper too).
func (r *Fig8Result) Check() error {
	half := len(r.Iterations) / 2
	if half == 0 {
		return fmt.Errorf("sweep too short: %w", ErrShape)
	}
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	short := mean(r.Iterations[:half])
	long := mean(r.Iterations[half:])
	if long > short {
		return fmt.Errorf("long-horizon mean %.1f above short-horizon mean %.1f: %w",
			long, short, ErrShape)
	}
	return nil
}

// PoSResult verifies Theorem 1 numerically: the equilibrium reached by
// Algorithm 2 attains (within tolerance) the social optimum.
type PoSResult struct {
	Players []int
	Ratio   []float64 // NE total cost / SWP total cost
	Table   *Table
}

// PriceOfStability measures the efficiency of the computed equilibria for
// 2..maxPlayers providers.
func PriceOfStability(seed int64, maxPlayers int) (*PoSResult, error) {
	if maxPlayers < 2 {
		maxPlayers = 5
	}
	res := &PoSResult{
		Table: &Table{
			Title:   "Theorem 1 check: NE cost / social optimum cost",
			Columns: []string{"players", "NE/SWP"},
		},
	}
	for n := 2; n <= maxPlayers; n++ {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		s := gameScenario(rng, n, 3, 150)
		swp, err := game.SolveSocialWelfare(s)
		if err != nil {
			return nil, fmt.Errorf("n=%d swp: %w", n, err)
		}
		cfg := gameBRConfig(150)
		cfg.Epsilon = 0.0005
		br, err := game.BestResponse(s, cfg)
		if err != nil && !errors.Is(err, game.ErrNotConverged) {
			return nil, fmt.Errorf("n=%d br: %w", n, err)
		}
		ratio, err := game.EfficiencyRatio(br, swp)
		if err != nil {
			return nil, err
		}
		res.Players = append(res.Players, n)
		res.Ratio = append(res.Ratio, ratio)
		res.Table.AddRow(itoa(n), f4(ratio))
	}
	return res, nil
}

// Check verifies the PoS ≈ 1 prediction. The upper tolerance (15%) covers
// the ε-stability gap: Algorithm 2 stops at an approximately stable point,
// so individual draws can sit a few percent above the true optimum. No
// equilibrium can beat the social optimum, so the lower bound is 1 up to
// solver tolerance.
func (r *PoSResult) Check() error {
	for i, ratio := range r.Ratio {
		if ratio > 1.15 || ratio < 1-1e-6 {
			return fmt.Errorf("n=%d: NE/SWP = %g, want ≈ 1: %w", r.Players[i], ratio, ErrShape)
		}
	}
	return nil
}
