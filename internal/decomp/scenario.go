package decomp

import (
	"math"
	"math/rand"

	"dspp/internal/core"
	"dspp/internal/topology"
)

// Scenario SLA constants: Mu and MaxDelay are chosen so the feasibility
// radius (the distance past which the M/M/1 coefficient diverges) is a
// few hundred kilometers — a handful of DCs per location on a
// continental grid, so the location–DC support graph stays sparse.
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
	// demand requires (default 0.6; higher values bind more capacity
	// constraints).
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
