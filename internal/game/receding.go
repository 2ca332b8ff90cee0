package game

import (
	"context"
	"errors"
	"fmt"

	"dspp/internal/core"
	"dspp/internal/telemetry"
)

// DynamicProvider is a provider with full demand and price traces over a
// simulation run (as opposed to Provider, which carries one window). The
// receding-horizon game slices windows out of these traces.
type DynamicProvider struct {
	Name            string
	SLA             [][]float64
	ReconfigWeights []float64
	ServerSize      float64
	X0              core.State
	// Demand[k][v] and Prices[k][l] must cover Periods+Window entries.
	Demand [][]float64
	Prices [][]float64
}

// RecedingConfig drives RunReceding.
type RecedingConfig struct {
	// Window is the shared prediction window W̄ (Theorem 1's common
	// horizon assumption).
	Window int
	// Periods is the number of closed-loop control periods.
	Periods int
	// BestResponse configures the per-period Algorithm 2 runs.
	BestResponse BestResponseConfig
}

// RecedingResult is the closed-loop outcome.
type RecedingResult struct {
	// States[i][k] is provider i's allocation serving period k+1.
	States [][]core.State
	// Costs[i] is provider i's realized cost over the run.
	Costs []float64
	// Total is Σᵢ Costs[i].
	Total float64
	// Rounds[k] is the number of Algorithm 2 rounds at period k.
	Rounds []int
	// Converged[k] reports per-period ε-stability.
	Converged []bool
	// CostHistories[k] is period k's per-round total-cost trace from
	// Algorithm 2 — preserved even when the round cap was hit without
	// ε-stability, since the non-converged traces are exactly the ones
	// worth inspecting.
	CostHistories [][]float64
}

// RunReceding implements the paper's W-MPC equilibrium dynamics
// (Definition 2) in closed loop: at each period the providers compute the
// competition outcome for the next W periods via Algorithm 2, every
// provider applies only its first control, and the horizon recedes. It is
// the multi-provider analogue of the single-SP MPC loop in package sim.
func RunReceding(capacity []float64, providers []*DynamicProvider, cfg RecedingConfig) (*RecedingResult, error) {
	return RunRecedingCtx(context.Background(), capacity, providers, cfg)
}

// RunRecedingCtx is RunReceding with cooperative cancellation: the context
// is checked every period and threaded through the per-period Algorithm 2
// runs, so cancellation stops the loop within one best-response round.
func RunRecedingCtx(ctx context.Context, capacity []float64, providers []*DynamicProvider, cfg RecedingConfig) (*RecedingResult, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("window %d: %w", cfg.Window, ErrBadScenario)
	}
	if cfg.Periods < 1 {
		return nil, fmt.Errorf("periods %d: %w", cfg.Periods, ErrBadScenario)
	}
	if len(providers) == 0 {
		return nil, fmt.Errorf("no providers: %w", ErrBadScenario)
	}
	n := len(providers)
	for i, p := range providers {
		if p == nil {
			return nil, fmt.Errorf("provider %d nil: %w", i, ErrBadScenario)
		}
		need := cfg.Periods + cfg.Window
		if len(p.Demand) < need || len(p.Prices) < need {
			return nil, fmt.Errorf("provider %d traces cover %d/%d of %d periods: %w",
				i, len(p.Demand), len(p.Prices), need, ErrBadScenario)
		}
	}

	// One player per provider for the whole run: each period's window
	// changes only the forecasts and the start state, so every period's
	// rounds solve on the same instances and sessions.
	window := make([]*Provider, n)
	for i, p := range providers {
		window[i] = &Provider{
			Name:            p.Name,
			SLA:             p.SLA,
			ReconfigWeights: p.ReconfigWeights,
			ServerSize:      p.ServerSize,
			X0:              p.X0,
			Demand:          p.Demand[1 : 1+cfg.Window],
			Prices:          p.Prices[1 : 1+cfg.Window],
		}
	}
	scen := &Scenario{Capacity: capacity, Providers: window}
	players, err := scen.players()
	if err != nil {
		return nil, fmt.Errorf("period 0: %w", err)
	}

	res := &RecedingResult{
		States: make([][]core.State, n),
		Costs:  make([]float64, n),
	}
	// One game_run span wraps the closed loop; the per-period Algorithm 2
	// invocations parent their best_response spans to it via the context.
	// Nil-safe throughout when no hub is configured.
	runSpan := cfg.BestResponse.Telemetry.Tracer().Start(telemetry.SpanGameRun,
		telemetry.SpanIDFromContext(ctx),
		telemetry.Num("periods", float64(cfg.Periods)),
		telemetry.Num("providers", float64(n)))
	ctx = telemetry.ContextWithSpan(ctx, runSpan)
	defer func() {
		runSpan.SetAttr(telemetry.Num("total_cost", res.Total))
		runSpan.End()
	}()
	for k := 0; k < cfg.Periods; k++ {
		// The window covers forecasts for periods k+1 .. k+W. Round 0
		// warm-starts from the previous period's final plan shifted by one
		// period, since the horizon recedes by exactly one.
		for i, p := range providers {
			window[i].Demand = p.Demand[k+1 : k+1+cfg.Window]
			window[i].Prices = p.Prices[k+1 : k+1+cfg.Window]
			players[i].shift = 1
		}
		if err := scen.check(); err != nil {
			return nil, fmt.Errorf("period %d: %w", k, err)
		}
		br, err := play(ctx, capacity, players, cfg.BestResponse)
		// A round-cap overrun still yields a usable (ε-unstable) outcome to
		// apply; any other error — including cancellation — aborts the run.
		if err != nil && !errors.Is(err, ErrNotConverged) {
			return nil, fmt.Errorf("period %d: %w", k, err)
		}
		res.Rounds = append(res.Rounds, br.Iterations)
		res.Converged = append(res.Converged, br.Converged)
		res.CostHistories = append(res.CostHistories, br.CostHistory)

		// Apply only the first control of every provider's plan.
		for i, p := range providers {
			u0 := br.Outcomes[i].U[0]
			next := br.Outcomes[i].X[0]
			var cost float64
			for l := range next {
				for v := range next[l] {
					cost += p.Prices[k+1][l]*next[l][v] +
						p.ReconfigWeights[l]*u0[l][v]*u0[l][v]
				}
			}
			res.Costs[i] += cost
			res.Total += cost
			// The plan's storage is the session's: the next period
			// starts from a copy, which the result keeps.
			players[i].x0 = next.Clone()
			res.States[i] = append(res.States[i], players[i].x0)
		}
	}
	return res, nil
}

// CapacityUsage returns, per period, the shared capacity units consumed
// at DC l across all providers — for verifying the shared constraint in
// closed loop.
func (r *RecedingResult) CapacityUsage(providers []*DynamicProvider, l int) ([]float64, error) {
	if len(providers) != len(r.States) {
		return nil, fmt.Errorf("providers %d, states %d: %w", len(providers), len(r.States), ErrBadScenario)
	}
	if len(r.States) == 0 {
		return nil, nil
	}
	periods := len(r.States[0])
	out := make([]float64, periods)
	for i, p := range providers {
		if len(r.States[i]) != periods {
			return nil, fmt.Errorf("provider %d has %d states, want %d: %w",
				i, len(r.States[i]), periods, ErrBadScenario)
		}
		for k := 0; k < periods; k++ {
			if l < 0 || l >= len(r.States[i][k]) {
				return nil, fmt.Errorf("dc %d out of range: %w", l, ErrBadScenario)
			}
			for _, x := range r.States[i][k][l] {
				out[k] += p.ServerSize * x
			}
		}
	}
	return out, nil
}
