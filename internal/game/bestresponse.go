package game

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dspp/internal/parallel"
	"dspp/internal/qp"
	"dspp/internal/telemetry"
)

// BestResponseConfig tunes Algorithm 2.
type BestResponseConfig struct {
	// Alpha is the quota-update step size α (default 0.5).
	Alpha float64
	// Epsilon is the relative stability threshold ε (default 0.05, the
	// paper's experimental setting).
	Epsilon float64
	// MaxIterations caps the loop (default 500).
	MaxIterations int
	// StepDecay makes the effective step α/√(1+decay·iter), the standard
	// diminishing step of dual subgradient methods; 0 disables decay.
	StepDecay float64
	// InitialQuotas[i][l] overrides the default equal split of each
	// capacitated DC (entries for uncapacitated DCs are ignored). Each
	// capacitated column must be positive and is renormalized to the DC
	// capacity. Different starts can reach different ε-stable outcomes —
	// which is exactly how the price-of-anarchy experiment probes the
	// equilibrium set.
	InitialQuotas [][]float64
	// Parallel bounds the worker pool for the per-round provider solves
	// (providers are independent given their quotas); ≤ 0 means
	// runtime.GOMAXPROCS(0). Results are collected by provider index, so
	// the outcome is identical at any worker count.
	Parallel int
	// Telemetry, when non-nil, records the game's convergence behaviour:
	// best_response/best_response_round spans, round and quota-re-division
	// counters, the per-SP relative cost-delta histogram, and the QP
	// solver's own counters. Nil disables instrumentation.
	Telemetry *telemetry.Hub
}

// minQuota floors each provider's per-DC quota, as a fraction of the DC
// capacity, to keep the individual problems well posed.
const minQuota = 1e-6

func (c BestResponseConfig) withDefaults() BestResponseConfig {
	if c.Alpha <= 0 {
		c.Alpha = 0.5
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.05
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 500
	}
	return c
}

// BestResponseResult reports the outcome of Algorithm 2.
type BestResponseResult struct {
	// Outcomes holds each provider's final trajectory and cost.
	Outcomes []Outcome
	// Quotas[i][l] is provider i's final capacity quota at DC l.
	Quotas [][]float64
	// Iterations is the number of best-response rounds executed.
	Iterations int
	// CostHistory records the total cost after every round.
	CostHistory []float64
	// Converged reports whether the ε-stability test passed.
	Converged bool
	// Total is the final total cost Σᵢ Jᵢ.
	Total float64
}

// BestResponse runs the paper's Algorithm 2. Each round, every provider
// solves its DSPP against its current capacity quotas and reports the
// dual variables of the quota constraints; the infrastructure provider
// then shifts quota toward providers with higher duals (marginal value of
// capacity) and renormalizes so each DC's quotas sum to its capacity. The
// loop stops when total cost changes by at most ε (relative), which the
// paper uses as its "approximately stable outcome" criterion.
func BestResponse(s *Scenario, cfg BestResponseConfig) (*BestResponseResult, error) {
	return BestResponseCtx(context.Background(), s, cfg)
}

// BestResponseCtx is BestResponse with cooperative cancellation: the
// context is checked before every round and threaded into each provider's
// QP solve, so the loop stops within one round of the context being
// cancelled. If at least one round completed, the partial result is
// returned alongside the context's error (mirroring the ErrNotConverged
// contract); callers must treat such a result as a snapshot, not an
// equilibrium.
func BestResponseCtx(ctx context.Context, s *Scenario, cfg BestResponseConfig) (*BestResponseResult, error) {
	players, err := s.players()
	if err != nil {
		return nil, err
	}
	return play(ctx, s.Capacity, players, cfg)
}

// play runs Algorithm 2 on the players from the initial quotas. The
// players' sessions outlive the call only in a receding run, which reads
// the result before its next period solves on them, so the plans the
// result references stay intact for as long as a caller can see them.
func play(ctx context.Context, capacity []float64, players []*player, cfg BestResponseConfig) (*BestResponseResult, error) {
	cfg = cfg.withDefaults()
	n := len(players)
	l := len(capacity)

	// Initial quotas: equal split of each capacitated DC, or the caller's
	// normalized split.
	quotas := make([][]float64, n)
	for i := range quotas {
		quotas[i] = make([]float64, l)
		for li, c := range capacity {
			if math.IsInf(c, 1) {
				quotas[i][li] = math.Inf(1)
			} else {
				quotas[i][li] = c / float64(n)
			}
		}
	}
	if cfg.InitialQuotas != nil {
		if len(cfg.InitialQuotas) != n {
			return nil, fmt.Errorf("initial quotas for %d providers, want %d: %w",
				len(cfg.InitialQuotas), n, ErrBadScenario)
		}
		for li, c := range capacity {
			if math.IsInf(c, 1) {
				continue
			}
			var sum float64
			for i := range cfg.InitialQuotas {
				if len(cfg.InitialQuotas[i]) != l {
					return nil, fmt.Errorf("initial quotas row %d has %d DCs, want %d: %w",
						i, len(cfg.InitialQuotas[i]), l, ErrBadScenario)
				}
				q := cfg.InitialQuotas[i][li]
				if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
					return nil, fmt.Errorf("initial quota[%d][%d] = %g: %w", i, li, q, ErrBadScenario)
				}
				sum += q
			}
			for i := range quotas {
				quotas[i][li] = cfg.InitialQuotas[i][li] * c / sum
			}
		}
	}

	// All telemetry handles are nil-safe: with no hub every call below is
	// a no-op on a nil receiver.
	hub := cfg.Telemetry
	var qpOpts qp.Options
	if hub != nil {
		qpOpts.Hooks = hub.QPHooks()
	}
	reg := hub.Registry()
	mRounds := reg.Counter(telemetry.MetricGameRounds)
	mRediv := reg.Counter(telemetry.MetricGameQuotaRedivision)
	costHist := hub.GameCostDeltaHist()
	reg.Counter(telemetry.MetricGameRuns).Inc()

	res := &BestResponseResult{Quotas: quotas}
	brSpan := hub.Tracer().Start(telemetry.SpanBestResponse, telemetry.SpanIDFromContext(ctx),
		telemetry.Num("providers", float64(n)))
	ctx = telemetry.ContextWithSpan(ctx, brSpan)
	defer func() {
		conv := 0.0
		if res.Converged {
			conv = 1
		}
		brSpan.SetAttr(
			telemetry.Num("rounds", float64(res.Iterations)),
			telemetry.Num("converged", conv),
			telemetry.Num("total_cost", res.Total),
		)
		brSpan.End()
	}()

	prev := make([]float64, n)
	havePrev := false
	// The per-provider dual and total buffers are written by exactly one
	// worker each round and reused across rounds; carving the dual rows
	// out of one flat backing keeps a 4000-round game at a fixed handful
	// of allocations instead of O(rounds·providers).
	duals := make([][]float64, n)
	dualsFlat := make([]float64, n*l)
	for i := range duals {
		duals[i] = dualsFlat[i*l : (i+1)*l : (i+1)*l]
	}
	totals := make([]float64, n)
	raw := make([]float64, n)
	// Outcomes double-buffer: res.Outcomes always references the last
	// completed round's buffer, so the round in flight must write the
	// other one — a mid-round cancellation then cannot corrupt the
	// snapshot the partial result hands back.
	var outBufs [2][]Outcome
	outBufs[0] = make([]Outcome, n)
	outBufs[1] = make([]Outcome, n)
	// Per-SP best responses are independent given the quotas: each round
	// fans respond out on a bounded pool and collects by index
	// (determinism contract). It is built once, so a warm round allocates
	// nothing.
	var roundCtx context.Context
	var outcomes []Outcome
	respond := func(i int) error {
		pl := players[i]
		plan, err := pl.solve(roundCtx, quotas[i], qpOpts)
		if err != nil {
			return fmt.Errorf("provider %d (%s): %w", i, pl.p.Name, err)
		}
		outcomes[i] = Outcome{U: plan.U, X: plan.X, Cost: plan.Objective}
		// The plan reports duals of the server-count constraint
		// (quota/sᵢ slots); one capacity unit buys 1/sᵢ servers, so the
		// marginal value of quota is the dual divided by sᵢ.
		plan.TotalCapacityDualsInto(duals[i])
		for li := range duals[i] {
			duals[i][li] /= pl.p.ServerSize
		}
		totals[i] = plan.Objective
		return nil
	}
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			wrapped := fmt.Errorf("round %d: %w", iter, err)
			if iter > 0 {
				return res, wrapped
			}
			return nil, wrapped
		}
		mRounds.Inc()
		roundSpan := hub.Tracer().Start(telemetry.SpanBestResponseRound, brSpan.ID(),
			telemetry.Num("round", float64(iter)))
		roundCtx = telemetry.ContextWithSpan(ctx, roundSpan)
		outcomes = outBufs[iter&1]
		err := parallel.ForEachCtx(roundCtx, n, cfg.Parallel, respond)
		if err != nil {
			roundSpan.SetAttr(telemetry.Str("outcome", "error"))
			roundSpan.End()
			// A cancellation that lands mid-round still hands back the
			// last completed round's iterate; a genuine solve failure
			// (which the lowest-index rule ranks above any cancelled
			// slot) stays fatal.
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) && iter > 0 {
				return res, fmt.Errorf("round %d: %w", iter, ctxErr)
			}
			return nil, fmt.Errorf("round %d %w", iter, err)
		}
		var total float64
		for _, t := range totals {
			total += t
		}
		res.Outcomes = outcomes
		res.Total = total
		res.Iterations = iter + 1
		res.CostHistory = append(res.CostHistory, total)
		if havePrev {
			// Per-SP relative cost movement this round — the contraction
			// the ε-stability test watches.
			for i, oc := range outcomes {
				denom := math.Abs(prev[i])
				if denom == 0 {
					denom = 1
				}
				costHist.Observe(math.Abs(oc.Cost-prev[i]) / denom)
			}
		}
		roundSpan.SetAttr(telemetry.Num("total_cost", total))
		roundSpan.End()

		// "This process repeats until no SP can significantly improve its
		// total cost" (§VI): every provider's cost must be ε-stable.
		if havePrev {
			stable := true
			for i, oc := range outcomes {
				if math.Abs(oc.Cost-prev[i]) > cfg.Epsilon*math.Abs(prev[i]) {
					stable = false
					break
				}
			}
			if stable {
				res.Converged = true
				reg.Counter(telemetry.MetricGameConverged).Inc()
				return res, nil
			}
		}
		for i, oc := range outcomes {
			prev[i] = oc.Cost
		}
		havePrev = true

		// Quota update: C̄ᵢ = Cᵢ + α·λᵢ, floored, then renormalized per DC.
		mRediv.Inc()
		alpha := cfg.Alpha
		if cfg.StepDecay > 0 {
			alpha /= math.Sqrt(1 + cfg.StepDecay*float64(iter))
		}
		for li := 0; li < l; li++ {
			if math.IsInf(capacity[li], 1) {
				continue
			}
			floor := minQuota * capacity[li]
			var sum float64
			for i := range quotas {
				raw[i] = quotas[i][li] + alpha*duals[i][li]
				if raw[i] < floor {
					raw[i] = floor
				}
				sum += raw[i]
			}
			for i := range quotas {
				quotas[i][li] = raw[i] * capacity[li] / sum
			}
		}
	}
	return res, fmt.Errorf("after %d rounds (ε=%g): %w", cfg.MaxIterations, cfg.Epsilon, ErrNotConverged)
}

// EfficiencyRatio returns NE-total-cost / SWP-total-cost: the realized
// inefficiency of the computed equilibrium (≥ 1 up to solver tolerance;
// the paper's Theorem 1 predicts a best-case ratio — PoS — of exactly 1).
func EfficiencyRatio(ne *BestResponseResult, swp *SWPResult) (float64, error) {
	if ne == nil || swp == nil {
		return 0, fmt.Errorf("nil result: %w", ErrBadScenario)
	}
	if swp.Total <= 0 {
		if ne.Total <= 0 {
			return 1, nil
		}
		return 0, fmt.Errorf("SWP total %g: %w", swp.Total, ErrBadScenario)
	}
	return ne.Total / swp.Total, nil
}
