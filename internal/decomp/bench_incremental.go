package decomp

import (
	"context"
	"fmt"
	"math"
	"time"

	"dspp/internal/core"
)

// IncrementalCase is one point of the incremental-coordination curve:
// the same scenario/shard geometry as a ScalingCase, plus a quiet MPC
// tail that measures how much of the fleet the dirty-shard scheduler
// still re-solves once the trajectory has settled.
type IncrementalCase struct {
	ScalingCase
	// SteadyPeriods is the length of the constant-forecast MPC tail run
	// after the cold solve. The steady metrics are computed over the
	// second half of the tail, past the settling transient. Zero skips
	// the tail (frontier sizes where only the cold solve is of interest).
	SteadyPeriods int
	// Coordinate runs the coordinated solve even where DecideBypass would
	// send the case to the monolithic solve. Such a case takes no
	// monolithic reference — the model already says it loses to one — and
	// exists to show that the incremental tiers still fire.
	Coordinate bool
}

// IncrementalRecord is one measured point, shaped for BENCH_5.json.
// The cold-solve fields mirror ScalingRecord so the two curves compare
// column for column; the incremental fields record what the dirty-shard
// scheduler and the rank-k fast path did during that solve, and the
// steady_* fields what a settled MPC loop costs per period.
type IncrementalRecord struct {
	Name         string `json:"name"`
	Locations    int    `json:"locations"`
	DCs          int    `json:"dcs"`
	Pairs        int    `json:"pairs"`
	Shards       int    `json:"shards"`
	SharedDCs    int    `json:"shared_dcs"`
	MaxShardSize int    `json:"max_shard_size"`
	// Bypassed records a case the cost model routed to the monolithic
	// path. Its decomp and mono fields then describe the same single
	// solve — the bypass guarantees parity by construction (identical
	// code path), so speedup is exactly 1 and cost_gap exactly 0.
	Bypassed  bool `json:"bypassed"`
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
	// Cold-solve incremental accounting (Solution counters): shard QP
	// solves across all rounds, shard-rounds skipped clean, and solves
	// served by the rank-k capacity fast path.
	ShardSolves   int     `json:"shard_solves"`
	SkippedShards int     `json:"skipped_shards"`
	FastResolves  int     `json:"fast_resolves"`
	DirtyFraction float64 `json:"dirty_fraction"`

	DecompSolveSec  float64 `json:"decomp_solve_sec"`
	MonoSolveSec    float64 `json:"mono_solve_sec"`
	DecompObjective float64 `json:"decomp_objective"`
	MonoObjective   float64 `json:"mono_objective"`
	// CostGap = (decomp − mono)/|mono|; −1 when no monolithic reference
	// exists at this size. Speedup = mono/decomp seconds; 0 without a
	// reference.
	CostGap float64 `json:"cost_gap"`
	Speedup float64 `json:"speedup"`

	// Bench4DecompSec repeats the BENCH_4 (pre-incremental) coordinated
	// solve time for this case, when a baseline record was supplied;
	// SpeedupVsBench4 is against it. Both 0 without a baseline.
	Bench4DecompSec float64 `json:"bench4_decomp_solve_sec"`
	SpeedupVsBench4 float64 `json:"speedup_vs_bench4"`

	// Steady-state tail, measured over the second half of SteadyPeriods
	// constant-forecast MPC periods: the fraction of shard-slots
	// re-solved per period (shard solves / (periods × shards); a fully
	// carried period contributes zero), mean coordination rounds, fully
	// carried periods in the window, and mean wall-clock per period.
	SteadyPeriods     int     `json:"steady_periods"`
	SteadyDirtyFrac   float64 `json:"steady_dirty_fraction"`
	SteadyRounds      float64 `json:"steady_rounds_per_period"`
	SteadyHeldPeriods int     `json:"steady_held_periods"`
	SteadySecPeriod   float64 `json:"steady_solve_sec_per_period"`
	// SteadySkipped totals the shard-rounds skipped clean across the
	// whole tail (transient included — that is where most of the
	// skipping happens, before full carry takes over).
	SteadySkipped int `json:"steady_skipped_shards"`
}

// incrementalOptions is the solver configuration the incremental curve
// measures: dirty-shard scheduling on (the default), the rank-k capacity
// fast path, and cross-period carry at the quota tolerance.
func incrementalOptions(maxShardSize int) Options {
	return Options{
		MaxShardSize:   maxShardSize,
		NoFallback:     true,
		RankK:          true,
		PeriodCarryTol: 1e-3,
	}
}

// RunIncremental measures the incremental-coordination curve: for every
// case, one cold coordinated solve with the incremental machinery on
// (or the monolithic solve, where the bypass cost model sends it),
// followed by a quiet MPC tail that exercises dirty-shard skipping and
// cross-period carry. Monolithic references come from the supplied
// BENCH_4 baseline records when present (the scenario generator and the
// monolithic solve are deterministic, so the baseline objective is the
// exact reference), and are measured fresh otherwise; baseline decomp
// times feed the speedup_vs_bench4 column.
func RunIncremental(ctx context.Context, cases []IncrementalCase, baseline []ScalingRecord) ([]IncrementalRecord, error) {
	base := make(map[string]ScalingRecord, len(baseline))
	for _, b := range baseline {
		base[b.Name] = b
	}
	refs := make(map[scenarioKey]monoRef)
	var out []IncrementalRecord
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
		opt := incrementalOptions(cs.MaxShardSize)
		rec := IncrementalRecord{
			Name:      cs.Name,
			Locations: cs.Locations, DCs: cs.DCSites,
			Pairs:  inst.NumPairs(),
			Shards: len(part.Shards), SharedDCs: len(part.SharedDCs),
			MaxShardSize: cs.MaxShardSize,
			CostGap:      -1,
		}
		if b, ok := base[cs.Name]; ok && b.DecompSolveSec > 0 {
			rec.Bench4DecompSec = b.DecompSolveSec
		}

		key := scenarioKey{loc: cs.Locations, dc: cs.DCSites, w: w, seed: cs.Seed, util: cs.Utilization}
		ref, haveRef := refs[key]
		if !haveRef {
			if b, ok := base[cs.Name]; ok && b.MonoObjective != 0 && b.MonoSolveSec > 0 {
				ref = monoRef{seconds: b.MonoSolveSec, objective: b.MonoObjective}
				refs[key] = ref
				haveRef = true
			}
		}

		if !cs.Coordinate && DecideBypass(inst, part, opt).Bypass {
			// The controller would solve this case monolithically; measure
			// that solve once and record it on both sides.
			ses, err := inst.NewHorizonSession(w, opt.withDefaults().QP)
			if err != nil {
				return out, fmt.Errorf("case %s bypass session: %w", cs.Name, err)
			}
			start := time.Now()
			plan, err := ses.SolveCtx(ctx, core.HorizonInput{
				X0: x0, Demand: scn.Demand, Prices: scn.Prices,
			})
			if err != nil {
				return out, fmt.Errorf("case %s bypass solve: %w", cs.Name, err)
			}
			sec := time.Since(start).Seconds()
			rec.Bypassed, rec.Converged = true, true
			rec.DecompSolveSec, rec.DecompObjective = sec, plan.Objective
			rec.MonoSolveSec, rec.MonoObjective = sec, plan.Objective
			rec.CostGap, rec.Speedup = 0, 1
			if rec.Bench4DecompSec > 0 && sec > 0 {
				rec.SpeedupVsBench4 = rec.Bench4DecompSec / sec
			}
			out = append(out, rec)
			continue
		}

		solver, err := NewSolver(inst, w, part, opt)
		if err != nil {
			return out, fmt.Errorf("case %s: %w", cs.Name, err)
		}
		start := time.Now()
		sol, err := solver.SolveCtx(ctx, x0, scn.Demand, scn.Prices)
		if err != nil {
			return out, fmt.Errorf("case %s decomp solve: %w", cs.Name, err)
		}
		decompSec := time.Since(start).Seconds()
		rec.Rounds, rec.Converged = sol.Rounds, sol.Converged
		rec.ShardSolves, rec.SkippedShards = sol.ShardSolves, sol.SkippedShards
		rec.FastResolves, rec.DirtyFraction = sol.FastResolves, sol.DirtyFraction()
		rec.DecompSolveSec, rec.DecompObjective = decompSec, sol.Objective

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
			rec.MonoSolveSec, rec.MonoObjective = ref.seconds, ref.objective
			if ref.objective != 0 {
				rec.CostGap = (sol.Objective - ref.objective) / math.Abs(ref.objective)
			}
			if decompSec > 0 {
				rec.Speedup = ref.seconds / decompSec
			}
		}
		if rec.Bench4DecompSec > 0 && decompSec > 0 {
			rec.SpeedupVsBench4 = rec.Bench4DecompSec / decompSec
		}

		if cs.SteadyPeriods > 0 {
			type periodStat struct {
				solves, rounds int
				held           bool
				sec            float64
			}
			stats := make([]periodStat, 0, cs.SteadyPeriods)
			state := sol.State
			for k := 0; k < cs.SteadyPeriods; k++ {
				if err := ctx.Err(); err != nil {
					return out, err
				}
				start = time.Now()
				psol, err := solver.SolveCtx(ctx, state, scn.Demand, scn.Prices)
				if err != nil {
					return out, fmt.Errorf("case %s steady period %d: %w", cs.Name, k, err)
				}
				stats = append(stats, periodStat{
					solves: psol.ShardSolves, rounds: psol.Rounds,
					held: psol.HeldShards == len(part.Shards),
					sec:  time.Since(start).Seconds(),
				})
				rec.SteadySkipped += psol.SkippedShards
				state = psol.State
			}
			// Settled window: the second half of the tail, past the
			// transient where the MPC state is still absorbing the cold
			// plan and every shard legitimately re-solves.
			window := stats[len(stats)/2:]
			var solves, rounds, held int
			var sec float64
			for _, st := range window {
				solves += st.solves
				rounds += st.rounds
				sec += st.sec
				if st.held {
					held++
				}
			}
			n := float64(len(window))
			rec.SteadyPeriods = cs.SteadyPeriods
			rec.SteadyDirtyFrac = float64(solves) / (n * float64(len(part.Shards)))
			rec.SteadyRounds = float64(rounds) / n
			rec.SteadyHeldPeriods = held
			rec.SteadySecPeriod = sec / n
		}
		out = append(out, rec)
	}
	return out, nil
}

// SteadyGuardPeriods is the tail length from which the steady-state
// metrics are guard-grade: on the bench scenarios the quiet MPC loop
// reaches its absorbing full-carry state after roughly 45 periods, so a
// tail of 50+ periods (metrics over the second half) measures the
// settled regime, while shorter tails still straddle the transient and
// are recorded for the curve but not asserted on.
const SteadyGuardPeriods = 50

// DefaultIncrementalCases returns the BENCH_5 case list — the BENCH_4
// geometries, so the two curves compare point for point — plus one
// coordinated probe (see IncrementalCase.Coordinate). Smoke sizes run a
// guard-grade quiet tail (they back the steady-state CI check); the
// continental sizes run a short recorded tail, and the frontier only the
// cold solve.
func DefaultIncrementalCases(full bool) []IncrementalCase {
	steady := map[string]int{
		"n120-shards4":   2 * SteadyGuardPeriods,
		"n240-shards8":   2 * SteadyGuardPeriods,
		"n500-shards4":   24,
		"n1000-shards4":  16,
		"n1000-shards8":  16,
		"n1000-shards16": 16,
	}
	var out []IncrementalCase
	for _, cs := range DefaultScalingCases(full) {
		out = append(out, IncrementalCase{ScalingCase: cs, SteadyPeriods: steady[cs.Name]})
	}
	// With the block-angular horizon solve the cost model bypasses every
	// smoke geometry, so the incremental tiers are probed on the n240
	// eight-shard split run coordinated regardless.
	return append(out, IncrementalCase{
		ScalingCase: ScalingCase{
			Name: "n240-shards8-coordinated", Locations: 240, DCSites: 24, MaxShardSize: 30, Seed: 42,
		},
		SteadyPeriods: 2 * SteadyGuardPeriods,
		Coordinate:    true,
	})
}
