package decomp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dspp/internal/core"
	"dspp/internal/parallel"
	"dspp/internal/qp"
	"dspp/internal/telemetry"
)

// Options configures the decomposition layer.
type Options struct {
	// MaxShardSize caps locations per shard (0 = connected components
	// only, however large).
	MaxShardSize int
	// MaxRounds bounds the dual-price coordination loop per MPC step
	// (default 20).
	MaxRounds int
	// Tol is the ε-stability cutoff: the loop stops once no shard's
	// horizon cost moved by more than Tol relative between rounds
	// (default 5e-3).
	Tol float64
	// Alpha is the quota transfer step in (0, 1] (default 0.5).
	Alpha float64
	// MinQuotaFrac floors each shard's share of a shared DC's capacity
	// at MinQuotaFrac·C/|shards| (default 1e-3), keeping every
	// sub-instance's capacity vector strictly positive.
	MinQuotaFrac float64
	// UsageMargin is the headroom an unconstrained shard keeps above its
	// planned peak when donating quota (default 0.05).
	UsageMargin float64
	// Workers bounds the per-round parallel shard solves (≤ 0 means
	// GOMAXPROCS).
	Workers int
	// QP configures the per-shard interior-point solver (zero value =
	// solver defaults).
	QP qp.Options
	// Telemetry, when non-nil, receives coordinate spans, the
	// dspp_decomp_shards gauge, dspp_coordination_rounds_total, and the
	// per-shard QP solver counters.
	Telemetry *telemetry.Hub
	// Deprecated: has no effect; kept only because the benchmark module sets it.
	NoFallback bool
	// Deprecated: has no effect; kept only because the benchmark module sets it.
	RankK bool
	// Deprecated: has no effect; kept only because the benchmark module sets it.
	PeriodCarryTol float64
}

func (o Options) withDefaults() Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 20
	}
	if o.Tol <= 0 {
		o.Tol = 5e-3
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.5
	}
	if o.MinQuotaFrac <= 0 {
		o.MinQuotaFrac = 1e-3
	}
	if o.UsageMargin <= 0 {
		o.UsageMargin = 0.05
	}
	if o.Telemetry != nil {
		o.QP.Hooks = o.Telemetry.QPHooks()
	}
	return o
}

// regionShard is one region's solver state: the sub-instance over its
// (locations × reachable DCs) block, a persistent HorizonSession, and
// pre-allocated scatter buffers refilled every solve.
type regionShard struct {
	locs, dcs []int
	sub       *core.Instance
	ses       *core.HorizonSession
	// caps is the live capacity vector handed to the sub-instance:
	// exclusive DCs carry the parent's full capacity, shared DCs the
	// current quota.
	caps []float64
	// Scatter buffers (refilled per solve/period).
	x0             core.State
	demand, prices [][]float64
	// Warm chaining: shift 1 on a period's first round (receding
	// horizon), 0 on later rounds (same window, new quotas).
	warm      *core.HorizonWarm
	warmShift int
	plan      *core.Plan
	// dualBuf receives the horizon-summed capacity duals per local DC.
	dualBuf        []float64
	cost, prevCost float64
	capsDirty      bool
	// hit marks that this shard's latest solve was stopped by the period
	// deadline and contributed a projected anytime iterate rather than a
	// converged plan. Written only by the shard's own round worker.
	hit bool
}

// needTerm weights one location's demand in a shard's initial-quota
// estimate: w = a_lv/|F(v)| converts the location's forecast demand into
// the servers this DC would host if the location split evenly across its
// feasible DCs.
type needTerm struct {
	v int
	w float64
}

// member is one shard's stake in a shared DC.
type member struct {
	shard, localDC int
	needW          []needTerm
	// minW lists the shard locations whose globally most efficient
	// (lowest-a) DC is this one. Their min-server load is the shard's
	// feasibility floor on the quota: as long as every member keeps at
	// least that much, the min-server assignment — which the parent
	// instance admits whenever it is feasible at all — restricts to a
	// feasible point of every shard sub-instance, so no quota split can
	// ever hand a shard an infeasible QP.
	minW []needTerm
}

// sharedDC is a capacitated DC reachable from several shards: its
// capacity is divided into per-shard quotas that the coordination loop
// re-prices each round. Quotas persist across MPC periods (warm prices).
type sharedDC struct {
	global  int
	cap     float64
	members []member
	quota   []float64
	need    []float64 // scratch
	// minQ[i] is member i's feasibility floor for the current forecasts,
	// recomputed each solve from the members' minW terms.
	minQ []float64
}

// Solver runs the sharded solve for one (instance, horizon) pair. Not
// safe for concurrent use; the parallelism is internal (per-round shard
// fan-out).
type Solver struct {
	inst *core.Instance
	w    int
	opt  Options
	part *Partition

	shards []*regionShard
	shared []*sharedDC

	quotasInit  bool
	coordRounds *telemetry.Counter
	shardSolves *telemetry.Counter
}

// Solution is one coordinated horizon solve.
type Solution struct {
	// Applied is the global first-step control; State the allocation
	// after applying it. Both are freshly allocated per solve.
	Applied core.State
	State   core.State
	// Objective is the exact global horizon objective: pairs partition
	// across shards, so it is the plain sum of shard objectives.
	Objective float64
	// Rounds is the number of coordination rounds used; Converged
	// reports whether the loop met the ε-stability cutoff in budget.
	Rounds    int
	Converged bool
	// DeadlineHit reports that the context deadline stopped the loop
	// between rounds: the solution is the last complete (feasible)
	// iterate, just not ε-stable. Mutually exclusive with Converged.
	DeadlineHit bool
	// Partial reports that the deadline fired inside the final round, so
	// at least one shard contributed a projected anytime iterate instead
	// of a converged plan. The gathered solution is capacity-feasible
	// (every anytime plan is projected onto its quota) but may under-serve
	// demand — the same contract as the monolithic solver's anytime rung.
	// When DeadlineHit is set without Partial, the iterate additionally
	// satisfies all demand constraints.
	Partial bool
	// QPIterations/ColdRestarts aggregate the shard solves.
	QPIterations int
	ColdRestarts int
	// ShardSolves counts shard QP solves across all rounds: every round
	// re-solves every shard, so it is Rounds × shard count.
	ShardSolves int
	// Deprecated: SkippedShards, FastResolves and HeldShards are always
	// zero; kept only because the benchmark module reads them.
	SkippedShards, FastResolves, HeldShards int
}

// NewSolver builds the per-shard sub-instances and sessions for the given
// partition. The partition must come from NewPartition on the same
// instance.
func NewSolver(inst *core.Instance, horizon int, part *Partition, opt Options) (*Solver, error) {
	if inst == nil || part == nil {
		return nil, fmt.Errorf("nil instance or partition: %w", ErrBadConfig)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("horizon %d: %w", horizon, ErrBadConfig)
	}
	opt = opt.withDefaults()
	s := &Solver{inst: inst, w: horizon, opt: opt, part: part}
	if reg := opt.Telemetry.Registry(); reg != nil {
		s.coordRounds = reg.Counter(telemetry.MetricCoordinationRounds)
		s.shardSolves = reg.Counter(telemetry.MetricShardSolves)
		reg.Gauge(telemetry.MetricDecompShards).Set(float64(len(part.Shards)))
	}

	// Per-location feasible-DC counts (initial-quota weights) and each
	// location's most efficient DC (quota feasibility floors).
	locFeas := make([]int, inst.NumLocations())
	locCheapest := make([]int, inst.NumLocations())
	var buf []int
	for v := range locFeas {
		buf = inst.FeasibleDCs(v, buf[:0])
		locFeas[v] = len(buf)
		best, bestL := math.Inf(1), -1
		for _, l := range buf {
			a, err := inst.SLACoefficient(l, v)
			if err != nil {
				return nil, err
			}
			if a < best {
				best, bestL = a, l
			}
		}
		locCheapest[v] = bestL
	}

	localIdx := make([]map[int]int, len(part.Shards))
	for i, sh := range part.Shards {
		sub, ses, err := buildShard(inst, sh, horizon, opt.QP)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r := &regionShard{
			locs: sh.Locations, dcs: sh.DCs, sub: sub, ses: ses,
			caps:    sub.Capacities(),
			x0:      sub.NewState(),
			demand:  make([][]float64, horizon),
			prices:  make([][]float64, horizon),
			dualBuf: make([]float64, len(sh.DCs)),
		}
		for t := 0; t < horizon; t++ {
			r.demand[t] = make([]float64, len(sh.Locations))
			r.prices[t] = make([]float64, len(sh.DCs))
		}
		s.shards = append(s.shards, r)
		localIdx[i] = make(map[int]int, len(sh.DCs))
		for li, gl := range sh.DCs {
			localIdx[i][gl] = li
		}
	}

	// Shared-DC table: capacitated DCs spanning several shards. An
	// uncapacitated shared DC needs no coordination — every shard keeps
	// it at +Inf.
	for _, gl := range part.SharedDCs {
		c, err := inst.Capacity(gl)
		if err != nil {
			return nil, err
		}
		if math.IsInf(c, 1) {
			continue
		}
		sd := &sharedDC{global: gl, cap: c}
		for i, sh := range part.Shards {
			li, ok := localIdx[i][gl]
			if !ok {
				continue
			}
			m := member{shard: i, localDC: li}
			for _, gv := range sh.Locations {
				if !inst.Feasible(gl, gv) {
					continue
				}
				a, err := inst.SLACoefficient(gl, gv)
				if err != nil {
					return nil, err
				}
				m.needW = append(m.needW, needTerm{v: gv, w: a / float64(locFeas[gv])})
				if locCheapest[gv] == gl {
					m.minW = append(m.minW, needTerm{v: gv, w: a})
				}
			}
			sd.members = append(sd.members, m)
		}
		sd.quota = make([]float64, len(sd.members))
		sd.need = make([]float64, len(sd.members))
		sd.minQ = make([]float64, len(sd.members))
		s.shared = append(s.shared, sd)
	}
	return s, nil
}

// buildShard extracts the sub-instance over (sh.DCs × sh.Locations) and
// opens its horizon session. Every feasible pair of a shard location is
// inside the block by construction, so the sub-instance always validates.
func buildShard(inst *core.Instance, sh Shard, horizon int, opts qp.Options) (*core.Instance, *core.HorizonSession, error) {
	sla := make([][]float64, len(sh.DCs))
	rec := make([]float64, len(sh.DCs))
	caps := make([]float64, len(sh.DCs))
	for i, gl := range sh.DCs {
		row := make([]float64, len(sh.Locations))
		for j, gv := range sh.Locations {
			a, err := inst.SLACoefficient(gl, gv)
			if err != nil {
				return nil, nil, err
			}
			row[j] = a
		}
		sla[i] = row
		var err error
		if rec[i], err = inst.ReconfigWeight(gl); err != nil {
			return nil, nil, err
		}
		if caps[i], err = inst.Capacity(gl); err != nil {
			return nil, nil, err
		}
	}
	sub, err := core.NewInstance(core.Config{SLA: sla, ReconfigWeights: rec, Capacities: caps})
	if err != nil {
		return nil, nil, err
	}
	ses, err := sub.NewHorizonSession(horizon, opts)
	if err != nil {
		return nil, nil, err
	}
	return sub, ses, nil
}

// SolveCtx runs one coordinated horizon solve from x0: scatter the
// forecasts, solve every shard in parallel under the current quotas, and
// re-price shared capacity until shard costs are ε-stable or the round
// budget runs out. The returned solution is feasible for the full
// instance at every iterate — quotas partition capacity, so aggregate
// usage can never exceed it; budget exhaustion costs optimality, not
// feasibility.
func (s *Solver) SolveCtx(ctx context.Context, x0 core.State, demand, prices [][]float64) (*Solution, error) {
	if err := s.inst.CheckState(x0); err != nil {
		return nil, err
	}
	if len(demand) < s.w || len(prices) < s.w {
		return nil, fmt.Errorf("forecasts cover %d/%d periods, horizon %d: %w",
			len(demand), len(prices), s.w, core.ErrBadInput)
	}

	// Scatter the period's inputs into every shard's buffers.
	for _, r := range s.shards {
		for j, gv := range r.locs {
			for t := 0; t < s.w; t++ {
				r.demand[t][j] = demand[t][gv]
			}
		}
		for i, gl := range r.dcs {
			for t := 0; t < s.w; t++ {
				r.prices[t][i] = prices[t][gl]
			}
			for j, gv := range r.locs {
				r.x0[i][j] = x0[gl][gv]
			}
		}
		r.warmShift = 1
	}
	first := !s.quotasInit
	s.refreshCapacities()
	s.computeQuotaFloors(demand)
	if first {
		s.initQuotas(demand[0])
		s.quotasInit = true
	} else {
		// Warm quotas from the previous period may sit below the new
		// forecasts' floors; re-floor before the first round.
		for _, sd := range s.shared {
			s.floorAndRenormalize(sd)
		}
	}
	s.applyQuotas()

	tr := s.opt.Telemetry.Tracer()
	sp := tr.Start(telemetry.SpanCoordinate, telemetry.SpanIDFromContext(ctx),
		telemetry.Num("shards", float64(len(s.shards))))
	ctx = telemetry.ContextWithSpan(ctx, sp)
	defer sp.End()

	sol := &Solution{}
	workers := parallel.Workers(s.opt.Workers, len(s.shards))
	deadline, hasDeadline := ctx.Deadline()
	// Under a period deadline the shard solves run in anytime mode against
	// a deadline-only view of the context: the solver's per-iteration clock
	// check stops each shard within one iteration of the deadline and hands
	// back its best iterate, while the suppressed cancellation keeps the
	// work scheduler from skipping shards outright once the deadline has
	// passed — every shard must contribute an iterate for the gathered
	// round to stay a full partition. Cancellation response degrades by at
	// most the tail of the current (clock-bounded) round.
	solveCtx := ctx
	for _, r := range s.shards {
		r.ses.SetAnytime(hasDeadline)
	}
	if hasDeadline {
		solveCtx = deadlineOnlyCtx{parent: ctx}
	}
	for round := 0; round < s.opt.MaxRounds; round++ {
		if err := s.pushCapacities(); err != nil {
			return nil, err
		}
		roundStart := time.Now()
		err := parallel.ForEachCtx(solveCtx, len(s.shards), workers, func(k int) error {
			return s.solveShard(solveCtx, k, round)
		})
		if err != nil {
			sp.SetAttr(telemetry.Str("outcome", "error"))
			return nil, fmt.Errorf("round %d: %w: %w", round, ErrCoordination, err)
		}
		sol.Rounds++
		sol.ShardSolves += len(s.shards)
		anyHit := false
		for _, r := range s.shards {
			sol.QPIterations += r.plan.QPIterations
			sol.ColdRestarts += r.plan.ColdRestarts
			anyHit = anyHit || r.hit
		}
		if anyHit {
			// The deadline fired inside this round: the gathered iterate
			// is capacity-feasible (every shard contributed, anytime plans
			// are projected) but not ε-stable. Stop here — the convergence
			// test would be comparing partial-solve costs.
			sol.DeadlineHit = true
			sol.Partial = true
			sp.SetAttr(telemetry.Str("outcome", "deadline"))
			break
		}
		if s.converged(round) {
			sol.Converged = true
			break
		}
		// Period-deadline respect: every completed round is a feasible
		// iterate (quotas partition capacity), so when the budget is
		// about to run out — or already has — return the current iterate
		// instead of starting a round that cannot finish. The 1.5×
		// last-round margin stops before the deadline fires mid-solve,
		// where only an error could come back.
		if hasDeadline && (ctx.Err() != nil || time.Until(deadline) < time.Since(roundStart)*3/2) {
			sol.DeadlineHit = true
			sp.SetAttr(telemetry.Str("outcome", "deadline"))
			break
		}
		if round == s.opt.MaxRounds-1 {
			break
		}
		s.updateQuotas(round)
		s.applyQuotas()
	}
	if s.coordRounds != nil {
		s.coordRounds.Add(float64(sol.Rounds))
	}
	sp.SetAttr(telemetry.Num("rounds", float64(sol.Rounds)),
		telemetry.Str("converged", fmt.Sprintf("%t", sol.Converged)))

	// Gather: pairs partition across shards, so the global first-step
	// control/state and the objective assemble by plain scatter and sum.
	sol.Applied = s.inst.NewState()
	sol.State = s.inst.NewState()
	for _, r := range s.shards {
		u0, x1 := r.plan.U[0], r.plan.X[0]
		for i, gl := range r.dcs {
			for j, gv := range r.locs {
				sol.Applied[gl][gv] = u0[i][j]
				sol.State[gl][gv] = x1[i][j]
			}
		}
		sol.Objective += r.plan.Objective
	}
	s.shardSolves.Add(float64(sol.ShardSolves))
	return sol, nil
}

// solveShard runs one shard's warm session solve for the given round,
// projecting a deadline-stopped iterate onto the shard's quota. Runs on
// the round workers; touches only shard-local state.
func (s *Solver) solveShard(ctx context.Context, i, round int) error {
	r := s.shards[i]
	r.hit = false
	sp := s.opt.Telemetry.Tracer().Start(telemetry.SpanShardSolve, telemetry.SpanIDFromContext(ctx),
		telemetry.Num("shard", float64(i)), telemetry.Num("round", float64(round)))
	ctx = telemetry.ContextWithSpan(ctx, sp)
	defer sp.End()
	plan, err := r.ses.SolveCtx(ctx, core.HorizonInput{
		X0: r.x0, Demand: r.demand, Prices: r.prices,
		Warm: r.warm, WarmShift: r.warmShift,
	})
	if err != nil {
		if plan == nil || !errors.Is(err, qp.ErrDeadline) {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		// Deadline-stopped shard: its best iterate, projected onto the
		// shard's capacity quota, is this round's contribution. Quotas
		// partition the shared capacity, so the gathered global state
		// stays feasible.
		r.sub.ProjectPlanCapacity(plan, r.x0, r.prices)
		r.hit = true
	}
	r.plan = plan
	r.warm = plan.Warm
	r.warmShift = 0
	r.prevCost, r.cost = r.cost, plan.Objective
	plan.TotalCapacityDualsInto(r.dualBuf)
	sp.SetAttr(telemetry.Num("iterations", float64(plan.QPIterations)))
	return nil
}

// converged implements the stability test: no coupling, no binding
// shared capacity anywhere, or every shard's cost ε-stable vs the
// previous round.
func (s *Solver) converged(round int) bool {
	if len(s.shared) == 0 {
		return true
	}
	var maxDual float64
	for _, sd := range s.shared {
		for _, m := range sd.members {
			if d := s.shards[m.shard].dualBuf[m.localDC]; d > maxDual {
				maxDual = d
			}
		}
	}
	if maxDual <= 1e-9 {
		// Quotas bind nowhere: every shard is at its unconstrained
		// optimum, so the assembled solution is globally optimal.
		return true
	}
	if round == 0 {
		return false
	}
	for _, r := range s.shards {
		if math.Abs(r.cost-r.prevCost) > s.opt.Tol*math.Max(1, math.Abs(r.cost)) {
			return false
		}
	}
	return true
}

// refreshCapacities re-reads the parent instance's capacities (fault
// schedules move them between periods): exclusive DCs take the live value
// directly, shared DCs rescale their quota split to the new total.
func (s *Solver) refreshCapacities() {
	for _, r := range s.shards {
		for i, gl := range r.dcs {
			if s.part.DCShards[gl] > 1 {
				continue // quota-managed (or uncapacitated-shared: set below)
			}
			if c, err := s.inst.Capacity(gl); err == nil && c != r.caps[i] {
				r.caps[i] = c
				r.capsDirty = true
			}
		}
	}
	for _, sd := range s.shared {
		c, err := s.inst.Capacity(sd.global)
		if err != nil || c == sd.cap {
			continue
		}
		if s.quotasInit && sd.cap > 0 {
			scale := c / sd.cap
			for i := range sd.quota {
				sd.quota[i] *= scale
			}
		}
		sd.cap = c
	}
	// Uncapacitated shared DCs never made it into s.shared; keep their
	// +Inf entries in sync (they never change, SetCapacities forbids it).
}

// computeQuotaFloors refreshes every member's feasibility floor for the
// current forecasts: the peak-over-horizon min-server load of the shard
// locations anchored (lowest-a) on the shared DC, plus a hair of headroom
// so the shard QP keeps a strict interior. Whenever the parent instance is
// feasible under the min-server assignment, the floors sum below capacity
// — so flooring never conflicts with the quota split adding up to C.
func (s *Solver) computeQuotaFloors(demand [][]float64) {
	for _, sd := range s.shared {
		for i, m := range sd.members {
			var peak float64
			for t := 0; t < s.w; t++ {
				var load float64
				for _, term := range m.minW {
					load += term.w * demand[t][term.v]
				}
				if load > peak {
					peak = load
				}
			}
			sd.minQ[i] = peak * (1 + 1e-9)
		}
	}
}

// initQuotas seeds the quota split of every shared DC proportionally to
// each shard's estimated server need at the first forecast step.
func (s *Solver) initQuotas(demand0 []float64) {
	for _, sd := range s.shared {
		var total float64
		for i, m := range sd.members {
			var need float64
			for _, t := range m.needW {
				need += t.w * demand0[t.v]
			}
			sd.need[i] = need
			total += need
		}
		for i := range sd.quota {
			if total > 0 {
				sd.quota[i] = sd.cap * sd.need[i] / total
			} else {
				sd.quota[i] = sd.cap / float64(len(sd.members))
			}
		}
		s.floorAndRenormalize(sd)
	}
}

// Diminishing-step schedule for the quota transfers: after quotaDampAfter
// update steps the step shrinks geometrically by quotaDampFactor per
// step. On densely shared capacity (many shards per DC) donor/receiver
// roles can oscillate under a fixed step; the shrinking step forces the
// shard costs to settle inside the ε-stability cutoff, the same reason
// subgradient dual methods use diminishing step sizes. The step index is
// the round index, so the schedule restarts every period.
const (
	quotaDampAfter  = 8
	quotaDampFactor = 0.8
)

// updateQuotas is the dual-price re-division, run between rounds: shards
// whose quota is slack (zero capacity dual) donate α of their surplus
// above planned peak usage, and the pool is granted to constrained shards
// in proportion to their duals — the same price-proportional redivision
// as the paper's Algorithm-2 quota machinery, made zero-sum so aggregate
// capacity is conserved at every iterate. When every shard is constrained
// the split blends toward fully dual-proportional instead.
func (s *Solver) updateQuotas(round int) {
	alpha := s.opt.Alpha
	if round >= quotaDampAfter {
		alpha *= math.Pow(quotaDampFactor, float64(round-quotaDampAfter+1))
	}
	for _, sd := range s.shared {
		var maxDual, sumDual float64
		for i, m := range sd.members {
			d := s.shards[m.shard].dualBuf[m.localDC]
			sd.need[i] = d // reuse scratch as the dual snapshot
			if d > maxDual {
				maxDual = d
			}
			sumDual += d
		}
		if maxDual <= 1e-12 {
			continue
		}
		eps := 1e-6 * maxDual
		var pool, sumConstrained float64
		for i := range sd.members {
			if sd.need[i] > eps {
				sumConstrained += sd.need[i]
			}
		}
		for i, m := range sd.members {
			if sd.need[i] > eps {
				continue
			}
			peak := s.shardPeakUsage(m)
			slack := sd.quota[i] - peak*(1+s.opt.UsageMargin)
			if slack > 0 {
				give := alpha * slack
				sd.quota[i] -= give
				pool += give
			}
		}
		if pool > 0 {
			for i := range sd.members {
				if sd.need[i] > eps {
					sd.quota[i] += pool * sd.need[i] / sumConstrained
				}
			}
		} else {
			for i := range sd.members {
				sd.quota[i] = (1-alpha)*sd.quota[i] + alpha*sd.cap*sd.need[i]/sumDual
			}
		}
		s.floorAndRenormalize(sd)
	}
}

// shardPeakUsage returns the largest planned per-step total allocation on
// the member's DC across the horizon.
func (s *Solver) shardPeakUsage(m member) float64 {
	plan := s.shards[m.shard].plan
	var peak float64
	for _, x := range plan.X {
		var tot float64
		for _, xv := range x[m.localDC] {
			tot += xv
		}
		if tot > peak {
			peak = tot
		}
	}
	return peak
}

// floorAndRenormalize clamps every quota to its floor — the larger of the
// member's feasibility floor and the strictly-positive MinQuotaFrac share
// — then renormalizes only the surplus above the floors, so the split
// sums exactly to capacity without ever dipping below what any shard
// needs to stay feasible. If the floors alone exceed capacity (the parent
// instance itself is infeasible for these forecasts), the floors are
// scaled down proportionally and the shard QPs surface the infeasibility.
func (s *Solver) floorAndRenormalize(sd *sharedDC) {
	frac := s.opt.MinQuotaFrac * sd.cap / float64(len(sd.quota))
	var floorSum, surplus float64
	for i := range sd.quota {
		f := sd.minQ[i]
		if f < frac {
			f = frac
		}
		if sd.quota[i] < f {
			sd.quota[i] = f
		}
		floorSum += f
		surplus += sd.quota[i] - f
	}
	if floorSum >= sd.cap {
		scale := sd.cap / floorSum
		for i := range sd.quota {
			f := sd.minQ[i]
			if f < frac {
				f = frac
			}
			sd.quota[i] = f * scale
		}
		return
	}
	if surplus > 0 {
		scale := (sd.cap - floorSum) / surplus
		for i := range sd.quota {
			f := sd.minQ[i]
			if f < frac {
				f = frac
			}
			sd.quota[i] = f + (sd.quota[i]-f)*scale
		}
		return
	}
	// No surplus anywhere: hand the spare capacity out evenly.
	spare := (sd.cap - floorSum) / float64(len(sd.quota))
	for i := range sd.quota {
		f := sd.minQ[i]
		if f < frac {
			f = frac
		}
		sd.quota[i] = f + spare
	}
}

// applyQuotas writes the current quota split into the owning shards'
// capacity vectors.
func (s *Solver) applyQuotas() {
	for _, sd := range s.shared {
		for i, m := range sd.members {
			r := s.shards[m.shard]
			if r.caps[m.localDC] != sd.quota[i] {
				r.caps[m.localDC] = sd.quota[i]
				r.capsDirty = true
			}
		}
	}
}

// pushCapacities flushes dirty capacity vectors into the shard
// sub-instances before a round.
func (s *Solver) pushCapacities() error {
	for i, r := range s.shards {
		if !r.capsDirty {
			continue
		}
		if err := r.sub.SetCapacities(r.caps); err != nil {
			return fmt.Errorf("shard %d capacities: %w", i, err)
		}
		r.capsDirty = false
	}
	return nil
}

// deadlineOnlyCtx exposes its parent's deadline while never reporting
// cancellation. Shard solves in a deadline-bounded round run against this
// view: the QP solver's per-iteration clock check (which reads Deadline())
// still stops each solve on time with an anytime iterate, but the work
// scheduler's Err() pre-checks can't skip shards whose turn comes after
// the deadline — a gathered round needs every shard's contribution to
// remain a full partition of the instance.
type deadlineOnlyCtx struct{ parent context.Context }

func (d deadlineOnlyCtx) Deadline() (time.Time, bool) { return d.parent.Deadline() }
func (d deadlineOnlyCtx) Done() <-chan struct{}       { return nil }
func (d deadlineOnlyCtx) Err() error                  { return nil }
func (d deadlineOnlyCtx) Value(key any) any           { return d.parent.Value(key) }
