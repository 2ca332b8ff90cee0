package dspp

import (
	"context"

	"dspp/internal/game"
)

// Multi-provider competition types (§VI).
type (
	// Provider describes one competing service provider.
	Provider = game.Provider
	// GameScenario is a complete competition setting: shared DC
	// capacities plus the providers.
	GameScenario = game.Scenario
	// Outcome is one provider's solved trajectory and cost.
	Outcome = game.Outcome
	// SWPResult is the social-welfare optimum (the PoA/PoS benchmark).
	SWPResult = game.SWPResult
	// BestResponseConfig tunes Algorithm 2.
	BestResponseConfig = game.BestResponseConfig
	// BestResponseResult reports the computed equilibrium.
	BestResponseResult = game.BestResponseResult
	// DynamicProvider is a provider with full traces for the closed-loop
	// receding-horizon game.
	DynamicProvider = game.DynamicProvider
	// RecedingConfig drives the closed-loop W-MPC game.
	RecedingConfig = game.RecedingConfig
	// RecedingResult is the closed-loop competition outcome.
	RecedingResult = game.RecedingResult
)

// Game sentinel errors.
var (
	// ErrBadScenario flags inconsistent competition scenarios.
	ErrBadScenario = game.ErrBadScenario
	// ErrNotConverged means Algorithm 2 hit its iteration cap; partial
	// results accompany it.
	ErrNotConverged = game.ErrNotConverged
)

// SolveSocialWelfare solves the joint social welfare problem as a single
// QP: the benchmark the paper's Theorem 1 says the best Nash equilibrium
// attains (price of stability 1).
func SolveSocialWelfare(s *GameScenario) (*SWPResult, error) {
	return game.SolveSocialWelfare(s)
}

// BestResponse runs the paper's Algorithm 2: per-provider DSPP solves,
// dual-proportional quota reallocation by the infrastructure provider,
// until every provider's cost is ε-stable.
func BestResponse(s *GameScenario, cfg BestResponseConfig) (*BestResponseResult, error) {
	return game.BestResponse(s, cfg)
}

// BestResponseCtx is BestResponse with cooperative cancellation: the loop
// stops within one round of the context being cancelled, returning the
// partial result when at least one round completed.
func BestResponseCtx(ctx context.Context, s *GameScenario, cfg BestResponseConfig) (*BestResponseResult, error) {
	return game.BestResponseCtx(ctx, s, cfg)
}

// EfficiencyRatio returns equilibrium cost over social-optimum cost.
func EfficiencyRatio(ne *BestResponseResult, swp *SWPResult) (float64, error) {
	return game.EfficiencyRatio(ne, swp)
}

// RunRecedingGame runs the paper's W-MPC equilibrium dynamics
// (Definition 2) in closed loop: per period, Algorithm 2 computes the
// window equilibrium and every provider applies only its first control.
func RunRecedingGame(capacity []float64, providers []*DynamicProvider, cfg RecedingConfig) (*RecedingResult, error) {
	return game.RunReceding(capacity, providers, cfg)
}

// RunRecedingGameCtx is RunRecedingGame with cooperative cancellation.
func RunRecedingGameCtx(ctx context.Context, capacity []float64, providers []*DynamicProvider, cfg RecedingConfig) (*RecedingResult, error) {
	return game.RunRecedingCtx(ctx, capacity, providers, cfg)
}
