package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dspp/internal/baseline"
	"dspp/internal/core"
	"dspp/internal/game"
	"dspp/internal/packing"
	"dspp/internal/predict"
	"dspp/internal/queue"
	"dspp/internal/sim"
	"dspp/internal/workload"
)

// ReconfigWeightResult sweeps the quadratic reconfiguration weight c.
type ReconfigWeightResult struct {
	Weights   []float64
	MaxStep   []float64
	TotalMove []float64
	Cost      []float64
	Table     *Table
}

// AblationReconfigWeight probes the §IV-A design choice: larger quadratic
// penalties damp reconfiguration (stability) at some resource-cost
// premium.
func AblationReconfigWeight(seed int64) (*ReconfigWeightResult, error) {
	weights := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
	res := &ReconfigWeightResult{
		Weights: weights,
		Table: &Table{
			Title:   "Ablation: reconfiguration weight c",
			Columns: []string{"c", "max|u|", "total|u|", "total cost"},
		},
	}
	const periods = 24
	for _, c := range weights {
		sla, err := core.SLAMatrix([][]float64{{0.020}}, paperSLA)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(core.Config{
			SLA:             sla,
			ReconfigWeights: []float64{c},
			Capacities:      []float64{2000},
		})
		if err != nil {
			return nil, err
		}
		_, demand, prices, err := fig4Scenario(seed, periods+5, 2e-5)
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewController(inst, 5)
		if err != nil {
			return nil, err
		}
		run, err := sim.Run(sim.Config{
			Instance:    inst,
			Policy:      &sim.MPCPolicy{Ctrl: ctrl},
			DemandTrace: demand,
			PriceTrace:  prices,
			Periods:     periods,
			Horizon:     5,
		})
		if err != nil {
			return nil, fmt.Errorf("c=%g: %w", c, err)
		}
		var totalMove float64
		for _, s := range run.Steps {
			for _, row := range s.Control {
				for _, u := range row {
					totalMove += math.Abs(u)
				}
			}
		}
		res.MaxStep = append(res.MaxStep, run.MaxControl())
		res.TotalMove = append(res.TotalMove, totalMove)
		res.Cost = append(res.Cost, run.TotalCost)
		res.Table.AddRow(fmt.Sprintf("%.0e", c), f1(run.MaxControl()), f1(totalMove), f2(run.TotalCost))
	}
	return res, nil
}

// Check verifies that movement decreases as c grows.
func (r *ReconfigWeightResult) Check() error {
	return checkMonotone("ablation total|u|", r.TotalMove, -1, 0.05)
}

// BaselineResult compares the MPC controller against the baselines.
type BaselineResult struct {
	Policies   []string
	Cost       []float64
	Violations []int
	Table      *Table
}

// AblationBaselines runs MPC (W=5), myopic (W=1), static-average,
// greedy-nearest and lazy-threshold on a two-DC scenario with diurnal
// demand and a persistent price gap, with perfect forecasts.
func AblationBaselines(seed int64) (*BaselineResult, error) {
	const periods = 48
	sla, err := core.SLAMatrix([][]float64{{0.02, 0.06}, {0.06, 0.02}}, paperSLA)
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(core.Config{
		SLA:             sla,
		ReconfigWeights: []float64{2e-5, 2e-5},
		Capacities:      []float64{2000, 2000},
	})
	if err != nil {
		return nil, err
	}
	model, err := workload.NewDiurnal(1500, 12000)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	demand := make([][]float64, periods+6)
	for k := range demand {
		n1, err := workload.SamplePoisson(model.Rate(k), 1, rng)
		if err != nil {
			return nil, err
		}
		n2, err := workload.SamplePoisson(model.Rate(k+6), 1, rng)
		if err != nil {
			return nil, err
		}
		demand[k] = []float64{float64(n1), float64(n2)}
	}
	prices := make([][]float64, periods+6)
	for k := range prices {
		h := k % 24
		p0 := 0.04
		if h >= 10 && h <= 20 {
			p0 = 0.10 // DC0 becomes expensive at midday
		}
		prices[k] = []float64{p0, 0.05}
	}

	mk := func() []sim.Policy {
		ctrl5, err := core.NewController(inst, 5)
		if err != nil {
			panic(err) // construction with validated inputs cannot fail
		}
		ctrl1, err := core.NewController(inst, 1)
		if err != nil {
			panic(err)
		}
		static, err := baseline.NewStaticAverage(inst, demand, prices)
		if err != nil {
			panic(err)
		}
		greedy, err := baseline.NewGreedyNearest(inst)
		if err != nil {
			panic(err)
		}
		lazy, err := baseline.NewLazyThreshold(inst, 1.2, 1.8)
		if err != nil {
			panic(err)
		}
		return []sim.Policy{&sim.MPCPolicy{Ctrl: ctrl5}, &sim.MPCPolicy{Ctrl: ctrl1, Label: "myopic"}, static, greedy, lazy}
	}

	res := &BaselineResult{
		Table: &Table{
			Title:   "Ablation: MPC vs baseline policies",
			Columns: []string{"policy", "total cost", "SLA violations"},
		},
	}
	for _, pol := range mk() {
		run, err := sim.Run(sim.Config{
			Instance:    inst,
			Policy:      pol,
			DemandTrace: demand,
			PriceTrace:  prices,
			Periods:     periods,
			Horizon:     5,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pol.Name(), err)
		}
		res.Policies = append(res.Policies, run.PolicyName)
		res.Cost = append(res.Cost, run.TotalCost)
		res.Violations = append(res.Violations, run.SLAViolations)
		res.Table.AddRow(run.PolicyName, f2(run.TotalCost), itoa(run.SLAViolations))
	}
	return res, nil
}

// Check verifies that MPC is the cheapest violation-free policy.
func (r *BaselineResult) Check() error {
	var mpcCost float64
	found := false
	for i, name := range r.Policies {
		if name == "mpc-w5" {
			mpcCost = r.Cost[i]
			if r.Violations[i] != 0 {
				return fmt.Errorf("mpc violated SLA %d times: %w", r.Violations[i], ErrShape)
			}
			found = true
		}
	}
	if !found {
		return fmt.Errorf("mpc-w5 missing: %w", ErrShape)
	}
	for i, name := range r.Policies {
		if name == "mpc-w5" || r.Violations[i] > 0 {
			continue
		}
		if r.Cost[i] < mpcCost*0.999 {
			return fmt.Errorf("%s (%g) beat MPC (%g): %w", name, r.Cost[i], mpcCost, ErrShape)
		}
	}
	return nil
}

// SLAExtensionResult sweeps the §IV-B SLA extensions.
type SLAExtensionResult struct {
	Labels      []string
	Coefficient []float64
	Cost        []float64
	Table       *Table
}

// AblationPercentileSLA compares the mean-delay SLA against the
// 95th-percentile SLA: the percentile factor ln 20 ≈ 3 tightens a^lv and
// raises cost.
func AblationPercentileSLA() (*SLAExtensionResult, error) {
	res := &SLAExtensionResult{
		Table: &Table{
			Title:   "Ablation: mean-delay vs 95th-percentile SLA",
			Columns: []string{"SLA", "a(lv)", "total cost"},
		},
	}
	for _, phi := range []float64{0, 0.95} {
		cfg := paperSLA
		cfg.Percentile = phi
		sla, err := core.SLAMatrix([][]float64{{0.020}}, cfg)
		if err != nil {
			return nil, err
		}
		if math.IsInf(sla[0][0], 1) {
			return nil, fmt.Errorf("phi=%g produced infeasible pair: %w", phi, ErrShape)
		}
		inst, err := core.NewInstance(core.Config{
			SLA:             sla,
			ReconfigWeights: []float64{2e-5},
			Capacities:      []float64{5000},
		})
		if err != nil {
			return nil, err
		}
		const periods = 12
		demand := make([][]float64, periods+3)
		prices := make([][]float64, periods+3)
		for k := range demand {
			demand[k] = []float64{8000}
			prices[k] = []float64{0.05}
		}
		ctrl, err := core.NewController(inst, 2)
		if err != nil {
			return nil, err
		}
		run, err := sim.Run(sim.Config{
			Instance:    inst,
			Policy:      &sim.MPCPolicy{Ctrl: ctrl},
			DemandTrace: demand,
			PriceTrace:  prices,
			Periods:     periods,
			Horizon:     2,
		})
		if err != nil {
			return nil, err
		}
		label := "mean"
		if phi > 0 {
			label = "p95"
		}
		res.Labels = append(res.Labels, label)
		res.Coefficient = append(res.Coefficient, sla[0][0])
		res.Cost = append(res.Cost, run.TotalCost)
		res.Table.AddRow(label, f4(sla[0][0]), f2(run.TotalCost))
	}
	return res, nil
}

// Check verifies that the percentile SLA needs more servers (higher a and
// cost) than the mean SLA.
func (r *SLAExtensionResult) Check() error {
	if len(r.Cost) != 2 {
		return fmt.Errorf("want 2 rows, got %d: %w", len(r.Cost), ErrShape)
	}
	if r.Coefficient[1] <= r.Coefficient[0] {
		return fmt.Errorf("p95 coefficient %g not above mean %g: %w", r.Coefficient[1], r.Coefficient[0], ErrShape)
	}
	if r.Cost[1] <= r.Cost[0] {
		return fmt.Errorf("p95 cost %g not above mean %g: %w", r.Cost[1], r.Cost[0], ErrShape)
	}
	return nil
}

// ReservationResult sweeps the reservation ratio r.
type ReservationResult struct {
	Ratios     []float64
	Cost       []float64
	Violations []int
	Table      *Table
}

// AblationReservationRatio shows the §IV-B capacity-cushion trade-off:
// with an imperfect (persistence) forecast and noisy demand, a larger
// reservation ratio r buys fewer SLA violations at higher cost.
func AblationReservationRatio(seed int64) (*ReservationResult, error) {
	ratios := []float64{1.0, 1.2, 1.5}
	res := &ReservationResult{
		Ratios: ratios,
		Table: &Table{
			Title:   "Ablation: reservation ratio r under imperfect forecasts",
			Columns: []string{"r", "total cost", "SLA violations"},
		},
	}
	const periods = 48
	// Noisy demand that persistence consistently lags.
	rng := rand.New(rand.NewSource(seed))
	walk, err := workload.NewRandomWalk(8000, 0.25, 0.05, rng)
	if err != nil {
		return nil, err
	}
	demand := make([][]float64, periods+3)
	for k := range demand {
		demand[k] = []float64{walk.Rate(k)}
	}
	prices := make([][]float64, periods+3)
	for k := range prices {
		prices[k] = []float64{0.05}
	}
	for _, ratio := range ratios {
		cfg := paperSLA
		cfg.ReservationRatio = ratio
		sla, err := core.SLAMatrix([][]float64{{0.020}}, cfg)
		if err != nil {
			return nil, err
		}
		// Violations are judged against the un-cushioned SLA.
		baseSLA, err := core.SLAMatrix([][]float64{{0.020}}, paperSLA)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(core.Config{
			SLA:             sla,
			ReconfigWeights: []float64{2e-5},
			Capacities:      []float64{5000},
		})
		if err != nil {
			return nil, err
		}
		judge, err := core.NewInstance(core.Config{
			SLA:             baseSLA,
			ReconfigWeights: []float64{2e-5},
			Capacities:      []float64{5000},
		})
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewController(inst, 2)
		if err != nil {
			return nil, err
		}
		run, err := sim.Run(sim.Config{
			Instance:        inst,
			Policy:          &sim.MPCPolicy{Ctrl: ctrl},
			DemandTrace:     demand,
			PriceTrace:      prices,
			Periods:         periods,
			Horizon:         2,
			DemandPredictor: predict.Persistence{},
			SLAJudge:        judge, // violations judged against the true SLA
		})
		if err != nil {
			return nil, fmt.Errorf("r=%g: %w", ratio, err)
		}
		res.Cost = append(res.Cost, run.TotalCost)
		res.Violations = append(res.Violations, run.SLAViolations)
		res.Table.AddRow(f2(ratio), f2(run.TotalCost), itoa(run.SLAViolations))
	}
	return res, nil
}

// Check verifies that cost rises and violations do not rise with r.
func (r *ReservationResult) Check() error {
	if err := checkMonotone("reservation cost", r.Cost, 1, 0.01); err != nil {
		return err
	}
	for i := 1; i < len(r.Violations); i++ {
		if r.Violations[i] > r.Violations[i-1] {
			return fmt.Errorf("violations rose from %d to %d at r=%g: %w",
				r.Violations[i-1], r.Violations[i], r.Ratios[i], ErrShape)
		}
	}
	if r.Violations[0] == 0 {
		return fmt.Errorf("r=1 shows no violations; scenario too easy: %w", ErrShape)
	}
	return nil
}

// StepSizeResult sweeps Algorithm 2's quota step α and decay schedule,
// measuring the residual oscillation of the total cost after a fixed
// number of rounds.
type StepSizeResult struct {
	Alphas    []float64
	Decays    []float64
	TailInsta []float64 // max |ΔJ|/J over the last 20 of 300 rounds
	FinalCost []float64
	Table     *Table
}

// AblationGameStepSize probes the quota update of Algorithm 2 by running
// every configuration for exactly 300 rounds (no convergence cutoff) and
// reporting the tail instability: a large constant step keeps the costs
// oscillating; the same step with a diminishing 1/√t schedule (the dual-
// subgradient method the paper's reference [27] prescribes) damps the
// oscillation.
func AblationGameStepSize(seed int64) (*StepSizeResult, error) {
	cases := []struct {
		alpha, decay float64
	}{
		{1, 0}, {10, 0}, {500, 0}, {150, 1}, {500, 1},
	}
	const rounds = 300
	res := &StepSizeResult{
		Table: &Table{
			Title:   "Ablation: Algorithm 2 quota step size α and decay (300 rounds)",
			Columns: []string{"alpha", "decay", "tail instability", "final cost"},
		},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(seed))
		s := gameScenario(rng, 5, 3, 150)
		cfg := game.BestResponseConfig{
			Alpha: c.alpha, StepDecay: c.decay,
			Epsilon:       1e-12, // never triggers: fixed-length run
			MaxIterations: rounds,
		}
		br, err := game.BestResponse(s, cfg)
		if err != nil && !errors.Is(err, game.ErrNotConverged) {
			return nil, fmt.Errorf("alpha=%g: %w", c.alpha, err)
		}
		insta := tailInstability(br.CostHistory, 20)
		res.Alphas = append(res.Alphas, c.alpha)
		res.Decays = append(res.Decays, c.decay)
		res.TailInsta = append(res.TailInsta, insta)
		res.FinalCost = append(res.FinalCost, br.Total)
		res.Table.AddRow(f1(c.alpha), f1(c.decay), f4(insta), f2(br.Total))
	}
	return res, nil
}

// tailInstability returns the maximum relative round-to-round change of
// the series over its last n entries.
func tailInstability(history []float64, n int) float64 {
	if len(history) < 2 {
		return 0
	}
	start := len(history) - n
	if start < 1 {
		start = 1
	}
	var worst float64
	for i := start; i < len(history); i++ {
		if history[i-1] == 0 {
			continue
		}
		if d := math.Abs(history[i]-history[i-1]) / math.Abs(history[i-1]); d > worst {
			worst = d
		}
	}
	return worst
}

// Check asserts the subgradient-method contrast, which holds for any
// scenario: decaying the large step strictly damps the residual
// oscillation, and the tiny constant step is at least as calm as the
// large constant step.
func (r *StepSizeResult) Check() error {
	find := func(alpha, decay float64) int {
		for i := range r.Alphas {
			if r.Alphas[i] == alpha && r.Decays[i] == decay {
				return i
			}
		}
		return -1
	}
	largeConst := find(500, 0)
	largeDecay := find(500, 1)
	tiny := find(1, 0)
	if largeConst < 0 || largeDecay < 0 || tiny < 0 {
		return fmt.Errorf("missing sweep points: %w", ErrShape)
	}
	if r.TailInsta[largeDecay] >= r.TailInsta[largeConst] {
		return fmt.Errorf("decay did not damp: decayed %g vs constant %g: %w",
			r.TailInsta[largeDecay], r.TailInsta[largeConst], ErrShape)
	}
	if r.TailInsta[tiny] > r.TailInsta[largeConst] {
		return fmt.Errorf("tiny step (%g) wilder than large step (%g): %w",
			r.TailInsta[tiny], r.TailInsta[largeConst], ErrShape)
	}
	return nil
}

// FFDResult is the packing sanity experiment backing §VI's exact-capacity
// assumption.
type FFDResult struct {
	Trials   int
	AllExact bool
	MaxWaste float64
	Table    *Table
}

// AblationFFDExactness packs random GoGrid-style (doubling) VM mixes with
// FFD and reports whether every packing met the theoretical lower bound.
func AblationFFDExactness(seed int64, trials int) (*FFDResult, error) {
	if trials < 1 {
		trials = 100
	}
	rng := rand.New(rand.NewSource(seed))
	res := &FFDResult{Trials: trials, AllExact: true,
		Table: &Table{
			Title:   "Ablation: FFD exactness on divisible VM sizes (§VI)",
			Columns: []string{"trials", "all at lower bound", "max waste in full bins"},
		},
	}
	sizes := []float64{1, 2, 4, 8, 16, 32}
	for tr := 0; tr < trials; tr++ {
		n := 1 + rng.Intn(80)
		items := make([]float64, n)
		for i := range items {
			items[i] = sizes[rng.Intn(len(sizes))]
		}
		pack, lb, err := packAndBound(items, 32)
		if err != nil {
			return nil, err
		}
		if pack != lb {
			res.AllExact = false
		}
	}
	res.Table.AddRow(itoa(trials), fmt.Sprintf("%v", res.AllExact), f2(res.MaxWaste))
	return res, nil
}

// Check verifies §VI's claim on divisible sizes.
func (r *FFDResult) Check() error {
	if !r.AllExact {
		return fmt.Errorf("some FFD packings exceeded the lower bound: %w", ErrShape)
	}
	return nil
}

// packAndBound packs items with FFD and returns (bins used, lower bound).
func packAndBound(items []float64, capacity float64) (int, int, error) {
	pack, err := packing.FirstFitDecreasing(items, capacity)
	if err != nil {
		return 0, 0, err
	}
	lb, err := packing.LowerBound(items, capacity)
	if err != nil {
		return 0, 0, err
	}
	return pack.NumBins(), lb, nil
}

// MM1ValidationResult cross-checks the closed-form M/M/1 model that the
// controller's SLA reduction relies on against the discrete-event queue
// simulator, and confirms that the a·σ allocation rule keeps the realized
// delay inside the SLA.
type MM1ValidationResult struct {
	// ModelRelError is |simulated − closed-form| / closed-form mean delay
	// at the operating point the allocation rule produces.
	ModelRelError float64
	// WithinSLA reports whether the simulated total delay respects d̄.
	WithinSLA bool
	Table     *Table
}

// ValidateMM1Model applies the a·σ rule (with the integer server count a
// deployment would use), simulates the resulting per-server queue, and
// compares the simulated delay against the closed-form prediction at the
// same operating point.
func ValidateMM1Model(seed int64) (*MM1ValidationResult, error) {
	params := queue.SLAParams{Mu: 250, NetworkDelay: 0.02, MaxDelay: 0.25}
	sigma := 5000.0
	x, err := params.RequiredServers(sigma)
	if err != nil {
		return nil, err
	}
	servers := int(math.Ceil(x))
	perServer := sigma / float64(servers)
	analytic, err := queue.MM1Delay(perServer, params.Mu)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	simr, err := queue.SimulateMMc(perServer, params.Mu, 1, 200000, rng)
	if err != nil {
		return nil, err
	}
	rel := math.Abs(simr.MeanDelay-analytic) / analytic
	total := params.NetworkDelay + simr.MeanDelay
	res := &MM1ValidationResult{
		ModelRelError: rel,
		WithinSLA:     total <= params.MaxDelay,
		Table: &Table{
			Title:   "Validation: discrete-event M/M/1 vs closed-form model",
			Columns: []string{"simulated (s)", "closed-form (s)", "rel err", "within SLA"},
		},
	}
	res.Table.AddRow(f4(simr.MeanDelay), f4(analytic), f4(rel), fmt.Sprintf("%v", res.WithinSLA))
	return res, nil
}

// Check requires the simulation to agree with the closed form within
// Monte-Carlo noise and the allocation to stay inside the SLA.
func (r *MM1ValidationResult) Check() error {
	if r.ModelRelError > 0.05 {
		return fmt.Errorf("simulated delay deviates from M/M/1 by %g: %w", r.ModelRelError, ErrShape)
	}
	if !r.WithinSLA {
		return fmt.Errorf("allocation rule violated the SLA in simulation: %w", ErrShape)
	}
	return nil
}
