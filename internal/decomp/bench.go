package decomp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dspp/internal/core"
	"dspp/internal/topology"
)

// Scenario SLA constants: Mu and MaxDelay are chosen so the feasibility
// radius (the distance past which the M/M/1 coefficient diverges) is a
// few hundred kilometers — a handful of DCs per location on a
// continental grid, which is the regime the decomposition targets.
const (
	scenarioMu       = 1000.0 // per-server service rate (req/s)
	scenarioMaxDelay = 0.0078 // SLA latency bound (s)
	scenarioLastMile = 0.002  // per-endpoint access delay (s)
	// scenarioReach is the generator's coverage budget: strictly inside
	// the SLA cutoff MaxDelay − 1/Mu = 0.0068 s, so every location's
	// anchor DC is always feasible.
	scenarioReach = 0.0066
)

// ScenarioConfig sizes a synthetic continental benchmark scenario.
type ScenarioConfig struct {
	Locations, DCSites int
	Seed               int64
	Horizon            int
	// Utilization is the fraction of aggregate DC capacity the steady
	// demand requires (default 0.6; higher values exercise the quota
	// coordination harder).
	Utilization float64
}

// Scenario is a ready-to-solve continental instance: steady forecasts
// (identical across the horizon) and a zero initial state.
type Scenario struct {
	Inst           *core.Instance
	Net            *topology.ContinentalNetwork
	Demand, Prices [][]float64
}

// NewScenario generates the continental topology, converts it to a DSPP
// instance under the scenario SLA, and sizes uniform DC capacities so
// aggregate demand uses the configured fraction of them. Deterministic in
// the seed.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.Horizon < 1 {
		cfg.Horizon = 2
	}
	if cfg.Utilization <= 0 || cfg.Utilization >= 1 {
		cfg.Utilization = 0.6
	}
	net, err := topology.GenerateContinental(topology.ContinentalConfig{
		Locations:     cfg.Locations,
		DCSites:       cfg.DCSites,
		Seed:          cfg.Seed,
		LastMile:      scenarioLastMile,
		MaxReachDelay: scenarioReach,
	})
	if err != nil {
		return nil, err
	}
	latency := net.LatencyMatrix()
	sla, err := core.SLAMatrix(latency, core.SLAConfig{
		Mu: scenarioMu, MaxDelay: scenarioMaxDelay,
	})
	if err != nil {
		return nil, err
	}
	// Prune pairs beyond the generator's reach budget. Approaching the
	// SLA cutoff the M/M/1 coefficient diverges (Mu − 1/budget → 0⁺), so
	// without the clamp a location sitting just inside the cutoff gets an
	// enormous a^lv that wrecks the QP's conditioning while contributing
	// nothing (the pair can barely serve anyway). Coverage is safe: the
	// generator guarantees every location's anchor DC within the budget.
	for l := range sla {
		for v := range sla[l] {
			if latency[l][v] > scenarioReach {
				sla[l][v] = math.Inf(1)
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	demand := make([]float64, cfg.Locations)
	for v, site := range net.Access {
		demand[v] = float64(site.City.Population) * (0.008 + 0.004*rng.Float64())
	}
	// Size each DC's capacity off its own catchment: the servers it would
	// host if every location ran entirely on its most efficient (lowest-a)
	// feasible DC, divided by the target utilization. Uniform sizing would
	// leave hot DCs (dense catchments) over capacity at high utilization —
	// an infeasible instance — while per-catchment sizing keeps the
	// min-server assignment feasible by construction at any utilization,
	// with exactly 1/util headroom where the demand actually is. A floor
	// of a quarter of the mean keeps thin-catchment DCs usable as
	// spillover targets rather than degenerate slivers.
	need := make([]float64, cfg.DCSites)
	var needed float64
	for v := 0; v < cfg.Locations; v++ {
		best, bestL := math.Inf(1), -1
		for l := 0; l < cfg.DCSites; l++ {
			if sla[l][v] < best {
				best, bestL = sla[l][v], l
			}
		}
		need[bestL] += demand[v] * best
		needed += demand[v] * best
	}
	capFloor := needed / float64(cfg.DCSites) * 0.25 / cfg.Utilization
	caps := make([]float64, cfg.DCSites)
	rec := make([]float64, cfg.DCSites)
	prices := make([]float64, cfg.DCSites)
	for l := range caps {
		caps[l] = math.Max(need[l]/cfg.Utilization, capFloor)
		rec[l] = 1e-3
		prices[l] = 1 + 0.5*rng.Float64()
	}
	inst, err := core.NewInstance(core.Config{SLA: sla, ReconfigWeights: rec, Capacities: caps})
	if err != nil {
		return nil, err
	}
	s := &Scenario{Inst: inst, Net: net}
	for t := 0; t < cfg.Horizon; t++ {
		s.Demand = append(s.Demand, append([]float64(nil), demand...))
		s.Prices = append(s.Prices, append([]float64(nil), prices...))
	}
	return s, nil
}

// ScalingCase is one point of the shard-scaling curve.
type ScalingCase struct {
	Name               string
	Locations, DCSites int
	MaxShardSize       int
	Horizon            int
	Utilization        float64
	Seed               int64
	// Monolithic measures the full-instance reference solve for this
	// scenario. Cases sharing a scenario reuse the first measurement, so
	// a shard sweep pays for the (expensive) monolithic solve once.
	Monolithic bool
}

// ScalingRecord is one measured point, shaped for BENCH_4.json.
type ScalingRecord struct {
	Name            string  `json:"name"`
	Locations       int     `json:"locations"`
	DCs             int     `json:"dcs"`
	Pairs           int     `json:"pairs"`
	Shards          int     `json:"shards"`
	SharedDCs       int     `json:"shared_dcs"`
	MaxShardSize    int     `json:"max_shard_size"`
	Rounds          int     `json:"rounds"`
	Converged       bool    `json:"converged"`
	DecompSolveSec  float64 `json:"decomp_solve_sec"`
	MonoSolveSec    float64 `json:"mono_solve_sec"`
	DecompObjective float64 `json:"decomp_objective"`
	MonoObjective   float64 `json:"mono_objective"`
	// CostGap = (decomp − mono)/|mono|; −1 when the monolithic
	// reference was not measured at this size.
	CostGap float64 `json:"cost_gap"`
	// Speedup = mono/decomp solve seconds; 0 without a reference.
	Speedup float64 `json:"speedup"`
}

type scenarioKey struct {
	loc, dc, w int
	seed       int64
	util       float64
}

type monoRef struct {
	seconds   float64
	objective float64
}

// RunScaling measures the shard-scaling curve: for every case, one cold
// coordinated solve on a fresh solver, against (optionally) one cold
// monolithic solve of the same scenario. Monolithic references are cached
// per scenario, so a sweep over shard counts measures the reference once.
func RunScaling(ctx context.Context, cases []ScalingCase) ([]ScalingRecord, error) {
	refs := make(map[scenarioKey]monoRef)
	var out []ScalingRecord
	for _, cs := range cases {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		w := cs.Horizon
		if w < 1 {
			w = 2
		}
		scn, err := NewScenario(ScenarioConfig{
			Locations: cs.Locations, DCSites: cs.DCSites,
			Seed: cs.Seed, Horizon: w, Utilization: cs.Utilization,
		})
		if err != nil {
			return out, fmt.Errorf("case %s: %w", cs.Name, err)
		}
		inst := scn.Inst
		x0 := inst.NewState()

		part, err := NewPartition(inst, cs.MaxShardSize)
		if err != nil {
			return out, fmt.Errorf("case %s: %w", cs.Name, err)
		}
		solver, err := NewSolver(inst, w, part, Options{MaxShardSize: cs.MaxShardSize})
		if err != nil {
			return out, fmt.Errorf("case %s: %w", cs.Name, err)
		}
		start := time.Now()
		sol, err := solver.SolveCtx(ctx, x0, scn.Demand, scn.Prices)
		if err != nil {
			return out, fmt.Errorf("case %s decomp solve: %w", cs.Name, err)
		}
		decompSec := time.Since(start).Seconds()

		rec := ScalingRecord{
			Name:      cs.Name,
			Locations: cs.Locations, DCs: cs.DCSites,
			Pairs:  inst.NumPairs(),
			Shards: len(part.Shards), SharedDCs: len(part.SharedDCs),
			MaxShardSize:    cs.MaxShardSize,
			Rounds:          sol.Rounds,
			Converged:       sol.Converged,
			DecompSolveSec:  decompSec,
			DecompObjective: sol.Objective,
			CostGap:         -1,
		}

		key := scenarioKey{loc: cs.Locations, dc: cs.DCSites, w: w, seed: cs.Seed, util: cs.Utilization}
		ref, haveRef := refs[key]
		if !haveRef && cs.Monolithic {
			ses, err := inst.NewHorizonSession(w, solver.opt.QP)
			if err != nil {
				return out, fmt.Errorf("case %s mono session: %w", cs.Name, err)
			}
			start = time.Now()
			plan, err := ses.SolveCtx(ctx, core.HorizonInput{
				X0: x0, Demand: scn.Demand, Prices: scn.Prices,
			})
			if err != nil {
				return out, fmt.Errorf("case %s mono solve: %w", cs.Name, err)
			}
			ref = monoRef{seconds: time.Since(start).Seconds(), objective: plan.Objective}
			refs[key] = ref
			haveRef = true
		}
		if haveRef {
			rec.MonoSolveSec = ref.seconds
			rec.MonoObjective = ref.objective
			if ref.objective != 0 {
				rec.CostGap = (sol.Objective - ref.objective) / math.Abs(ref.objective)
			}
			if decompSec > 0 {
				rec.Speedup = ref.seconds / decompSec
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// DefaultScalingCases returns the BENCH_4 case list. The smoke variant
// (small sizes, seconds total) runs in CI; the full variant adds the
// continental sizes, including the n=1000/m=100 point with its monolithic
// reference (minutes) and an n=2000 frontier the monolithic path is not
// asked to touch.
func DefaultScalingCases(full bool) []ScalingCase {
	smoke := []ScalingCase{
		{Name: "n120-shards2", Locations: 120, DCSites: 12, MaxShardSize: 60, Monolithic: true, Seed: 41},
		{Name: "n120-shards4", Locations: 120, DCSites: 12, MaxShardSize: 30, Monolithic: true, Seed: 41},
		{Name: "n240-shards8", Locations: 240, DCSites: 24, MaxShardSize: 30, Monolithic: true, Seed: 42},
	}
	if !full {
		return smoke
	}
	return append(smoke, []ScalingCase{
		{Name: "n500-shards4", Locations: 500, DCSites: 50, MaxShardSize: 125, Monolithic: true, Seed: 43},
		{Name: "n1000-shards2", Locations: 1000, DCSites: 100, MaxShardSize: 500, Monolithic: true, Seed: 44},
		{Name: "n1000-shards4", Locations: 1000, DCSites: 100, MaxShardSize: 250, Monolithic: true, Seed: 44},
		{Name: "n1000-shards8", Locations: 1000, DCSites: 100, MaxShardSize: 125, Monolithic: true, Seed: 44},
		{Name: "n1000-shards16", Locations: 1000, DCSites: 100, MaxShardSize: 63, Monolithic: true, Seed: 44},
		{Name: "n2000-frontier", Locations: 2000, DCSites: 200, MaxShardSize: 125, Monolithic: false, Seed: 45},
	}...)
}
