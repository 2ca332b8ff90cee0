// Package game implements the paper's multi-provider resource-competition
// model (§VI): N service providers share the capacity of L data centers,
// each minimizing its own DSPP cost. It provides
//
//   - the social welfare problem (SWP): one joint QP over all providers
//     with shared capacity constraints, whose optimum is the benchmark for
//     the price of anarchy/stability;
//   - Algorithm 2: the distributed best-response iteration in which the
//     infrastructure provider re-divides each DC's capacity into per-SP
//     quotas proportionally to the reported capacity-constraint duals,
//     until the total cost stabilizes (|J − J̄| ≤ ε·J̄);
//   - PoA/PoS-style efficiency metrics comparing the two.
package game

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dspp/internal/core"
	"dspp/internal/qp"
)

// Sentinel errors.
var (
	// ErrBadScenario flags inconsistent scenario dimensions or values.
	ErrBadScenario = errors.New("game: invalid scenario")
	// ErrNotConverged means Algorithm 2 hit its iteration cap before the
	// stability test passed. Partial results are still returned.
	ErrNotConverged = errors.New("game: best response did not converge")
)

// Provider describes one competing service provider.
type Provider struct {
	// Name identifies the provider in reports.
	Name string
	// SLA is the provider's L×Vᵢ coefficient matrix a^ilv (+Inf marks
	// infeasible pairs).
	SLA [][]float64
	// ReconfigWeights holds the quadratic weights c^il per DC.
	ReconfigWeights []float64
	// ServerSize is s^i: the capacity units one of this provider's
	// servers occupies in a data center (§VI, eq. 16).
	ServerSize float64
	// X0 is the initial allocation (nil means all zeros).
	X0 core.State
	// Demand[t][v] is the demand forecast over the game window.
	Demand [][]float64
	// Prices[t][l] is the price forecast over the game window.
	Prices [][]float64
}

// numLocations returns Vᵢ.
func (p *Provider) numLocations() int {
	if len(p.SLA) == 0 {
		return 0
	}
	return len(p.SLA[0])
}

// Scenario is a complete competition setting.
type Scenario struct {
	// Capacity[l] is each DC's total capacity in capacity units; +Inf
	// means uncapacitated.
	Capacity []float64
	// Providers are the competing SPs. All must share the horizon length
	// (Theorem 1's common-window assumption W^i = W̄).
	Providers []*Provider
}

// Window returns the shared horizon length (0 when undeterminable).
func (s *Scenario) Window() int {
	if len(s.Providers) == 0 || s.Providers[0] == nil {
		return 0
	}
	return len(s.Providers[0].Demand)
}

// Validate checks the scenario: its dimensions and values, and each
// provider's SLA, weights and X0 against a core instance built from them.
func (s *Scenario) Validate() error {
	_, err := s.players()
	return err
}

// check validates the scenario's dimensions and values, everything but
// what only a core instance can check.
func (s *Scenario) check() error {
	if len(s.Providers) == 0 {
		return fmt.Errorf("no providers: %w", ErrBadScenario)
	}
	l := len(s.Capacity)
	if l == 0 {
		return fmt.Errorf("no data centers: %w", ErrBadScenario)
	}
	for i, c := range s.Capacity {
		if c <= 0 || math.IsNaN(c) {
			return fmt.Errorf("capacity[%d] = %g: %w", i, c, ErrBadScenario)
		}
	}
	for i, p := range s.Providers {
		if p == nil {
			return fmt.Errorf("provider %d is nil: %w", i, ErrBadScenario)
		}
	}
	w := s.Window()
	if w == 0 {
		return fmt.Errorf("empty horizon: %w", ErrBadScenario)
	}
	for i, p := range s.Providers {
		if len(p.SLA) != l {
			return fmt.Errorf("provider %d SLA has %d DCs, want %d: %w", i, len(p.SLA), l, ErrBadScenario)
		}
		if p.ServerSize <= 0 || math.IsNaN(p.ServerSize) || math.IsInf(p.ServerSize, 0) {
			return fmt.Errorf("provider %d server size %g: %w", i, p.ServerSize, ErrBadScenario)
		}
		if len(p.Demand) != w {
			return fmt.Errorf("provider %d horizon %d, want %d: %w", i, len(p.Demand), w, ErrBadScenario)
		}
		if len(p.Prices) != w {
			return fmt.Errorf("provider %d price horizon %d, want %d: %w", i, len(p.Prices), w, ErrBadScenario)
		}
		v := p.numLocations()
		if v == 0 {
			return fmt.Errorf("provider %d has no locations: %w", i, ErrBadScenario)
		}
		for t := 0; t < w; t++ {
			if len(p.Demand[t]) != v {
				return fmt.Errorf("provider %d demand[%d] width %d, want %d: %w", i, t, len(p.Demand[t]), v, ErrBadScenario)
			}
			if len(p.Prices[t]) != l {
				return fmt.Errorf("provider %d prices[%d] width %d, want %d: %w", i, t, len(p.Prices[t]), l, ErrBadScenario)
			}
		}
	}
	return nil
}

// player is one provider's solver state for a whole game: the core
// instance, built once on the scenario's capacitated set, the capacity
// buffer each round's quotas are written into, the horizon session, and
// the warm capsule chained from one solve to the next. Only the quota
// values move between rounds, so SetCapacities never has to change the
// instance's structure, and the session keeps its QP state for every
// round — and, in a receding run, for every period.
type player struct {
	p    *Provider
	inst *core.Instance
	caps []float64
	ses  *core.HorizonSession
	// x0 is the state the window starts from: p.X0, or zeros.
	x0 core.State
	// warm seeds the next solve, shifted by shift periods: 0 between
	// rounds, 1 at a receding period's first round.
	warm  *core.HorizonWarm
	shift int
}

// players validates the scenario and builds one player per provider. Each
// instance is capacitated exactly where s.Capacity is finite, at the full
// DC capacity until the first round writes the provider's quota.
func (s *Scenario) players() ([]*player, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	players := make([]*player, len(s.Providers))
	for i, p := range s.Providers {
		caps := make([]float64, len(s.Capacity))
		for l, c := range s.Capacity {
			caps[l] = c / p.ServerSize
		}
		inst, err := core.NewInstance(core.Config{
			SLA:             p.SLA,
			ReconfigWeights: p.ReconfigWeights,
			Capacities:      caps,
		})
		if err != nil {
			return nil, fmt.Errorf("provider %d: %w", i, err)
		}
		x0 := p.X0
		if x0 == nil {
			x0 = inst.NewState()
		} else if err := inst.CheckState(x0); err != nil {
			return nil, fmt.Errorf("provider %d x0: %w", i, err)
		}
		players[i] = &player{p: p, inst: inst, caps: caps, x0: x0}
	}
	return players, nil
}

// solve runs the player's best response to quota (capacity units per DC),
// warm-started from its previous plan, and keeps the new plan's warm
// capsule for the next solve. The session is opened on first use.
func (pl *player) solve(ctx context.Context, quota []float64, opts qp.Options) (*core.Plan, error) {
	for l, q := range quota {
		pl.caps[l] = q / pl.p.ServerSize
	}
	if err := pl.inst.SetCapacities(pl.caps); err != nil {
		return nil, err
	}
	if pl.ses == nil {
		ses, err := pl.inst.NewHorizonSession(len(pl.p.Demand), opts)
		if err != nil {
			return nil, err
		}
		pl.ses = ses
	}
	plan, err := pl.ses.SolveCtx(ctx, core.HorizonInput{
		X0:        pl.x0,
		Demand:    pl.p.Demand,
		Prices:    pl.p.Prices,
		Warm:      pl.warm,
		WarmShift: pl.shift,
	})
	if err != nil {
		return nil, err
	}
	pl.warm, pl.shift = plan.Warm, 0
	return plan, nil
}

// Outcome is one provider's solved trajectory and cost.
type Outcome struct {
	// U and X are the control and state trajectories over the window.
	U, X []core.State
	// Cost is the provider's objective Σ p·x + c·u² over the window.
	Cost float64
}

// TotalCost sums provider costs.
func TotalCost(outcomes []Outcome) float64 {
	var t float64
	for _, o := range outcomes {
		t += o.Cost
	}
	return t
}
