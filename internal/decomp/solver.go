// Package decomp holds the continental scenario generator and the
// identifiers of the retired coordinated sharded solver that the
// benchmark module still compiles against. One monolithic horizon QP
// beats quota coordination at every measured size (DESIGN.md §12), so
// Solver and Controller forward to core's horizon session and
// controller, and every coordination counter they report is zero.
package decomp

import (
	"context"

	"dspp/internal/core"
	"dspp/internal/qp"
	"dspp/internal/telemetry"
)

// Options is the option set the benchmark module sets. Only Telemetry
// has an effect: its hub receives the QP solver's counters.
type Options struct {
	MaxShardSize   int
	Telemetry      *telemetry.Hub
	RankK          bool
	PeriodCarryTol float64
	NoFallback     bool
}

// Solution is one cold horizon solve: State is the allocation after the
// first step and Objective the horizon objective. Converged is always
// true; the coordination counters are always zero.
type Solution struct {
	State     core.State
	Objective float64
	Converged bool

	Rounds, ShardSolves, SkippedShards, FastResolves, HeldShards int
}

// Shard is a region of a Partition. No partition has any.
type Shard struct{}

// Partition is always empty: no instance is sharded.
type Partition struct {
	Shards []Shard
}

// NewPartition returns an empty partition.
func NewPartition(*core.Instance, int) (*Partition, error) { return &Partition{}, nil }

// Solver runs cold horizon solves for one (instance, horizon) pair on a
// core.HorizonSession over the instance's cached horizon structure. Not
// safe for concurrent use.
type Solver struct {
	ses *core.HorizonSession
}

// NewSolver opens the horizon session. The partition is ignored.
func NewSolver(inst *core.Instance, horizon int, _ *Partition, opt Options) (*Solver, error) {
	ses, err := inst.NewHorizonSession(horizon, qp.Options{Hooks: opt.Telemetry.QPHooks()})
	if err != nil {
		return nil, err
	}
	return &Solver{ses: ses}, nil
}

// SolveCtx solves the horizon QP cold from x0; the forecasts must cover
// exactly the solver's horizon. The returned State belongs to the
// session and stays valid until the end of the next-but-one solve.
func (s *Solver) SolveCtx(ctx context.Context, x0 core.State, demand, prices [][]float64) (*Solution, error) {
	plan, err := s.ses.SolveCtx(ctx, core.HorizonInput{X0: x0, Demand: demand, Prices: prices})
	if err != nil {
		return nil, err
	}
	return &Solution{State: plan.X[0], Objective: plan.Objective, Converged: true}, nil
}
