// Package dspp is the public API of the Dynamic Service Placement
// library, a reproduction of Zhang, Zhu, Zhani and Boutaba, "Dynamic
// Service Placement in Geographically Distributed Clouds" (IEEE ICDCS
// 2012).
//
// The library solves the paper's DSPP: a service provider leases servers
// in geographically distributed data centers under fluctuating demand and
// electricity-driven prices, subject to an M/M/1-based latency SLA and
// per-data-center capacities, minimizing server cost plus a quadratic
// reconfiguration penalty. The online controller is Model Predictive
// Control (Algorithm 1); the multi-provider extension computes the
// resource-competition equilibrium with the dual-proportional quota
// iteration of Algorithm 2.
//
// # Quickstart
//
//	sla, _ := dspp.SLAMatrix(latencies, dspp.SLAConfig{Mu: 250, MaxDelay: 0.25})
//	inst, _ := dspp.NewInstance(dspp.InstanceConfig{
//		SLA:             sla,
//		ReconfigWeights: []float64{1e-4, 1e-4},
//		Capacities:      []float64{2000, 2000},
//	})
//	ctrl, _ := dspp.NewController(inst, 5)
//	res, _ := ctrl.Step(demandForecast, priceForecast) // one MPC period
//
// See examples/ for complete programs and internal/experiments for the
// reproduction of every figure in the paper's evaluation.
package dspp

import (
	"time"

	"dspp/internal/core"
	"dspp/internal/qp"
)

// Core problem types, re-exported from the implementation packages so the
// whole public surface lives under one import path.
type (
	// Instance is an immutable DSPP instance (placement graph, SLA
	// coefficients, reconfiguration weights, capacities).
	Instance = core.Instance
	// InstanceConfig assembles an Instance.
	InstanceConfig = core.Config
	// SLAConfig derives SLA coefficients a^lv from latencies (eq. 10).
	SLAConfig = core.SLAConfig
	// State is a dense L×V server allocation x^lv.
	State = core.State
	// Assignment is the demand-routing decision σ^lv (eq. 13).
	Assignment = core.Assignment
	// CostBreakdown reports per-period resource and reconfiguration cost.
	CostBreakdown = core.CostBreakdown
	// Controller is the MPC resource controller (Algorithm 1).
	Controller = core.Controller
	// ControllerOption customizes controller construction.
	ControllerOption = core.ControllerOption
	// StepResult reports one executed MPC step.
	StepResult = core.StepResult
	// Degradation records how a controller step was produced: which rung
	// of the graceful-degradation ladder ran and how much demand was shed.
	Degradation = core.Degradation
	// DegradationMode identifies a ladder rung.
	DegradationMode = core.DegradationMode
	// HorizonInput is one horizon optimization problem.
	HorizonInput = core.HorizonInput
	// Plan is a solved horizon (controls, states, duals).
	Plan = core.Plan
	// RoundResult is an integer-rounded allocation (§VIII extension).
	RoundResult = core.RoundResult
	// SupportStats summarizes the SLA-sparsity pruning of an instance:
	// how many (location, DC) pairs survive the latency bound and carry
	// QP variables (see Instance.Support).
	SupportStats = core.SupportStats
	// QPOptions tunes the interior-point solver.
	QPOptions = qp.Options
)

// Degradation-ladder rungs (see Controller.StepCtx).
const (
	DegradeNone        = core.DegradeNone
	DegradeColdRestart = core.DegradeColdRestart
	DegradeAnytime     = core.DegradeAnytime
	DegradeSoft        = core.DegradeSoft
	DegradeHold        = core.DegradeHold
)

// Sentinel errors of the core problem, re-exported for errors.Is.
var (
	// ErrBadInstance flags inconsistent instance configuration.
	ErrBadInstance = core.ErrBadInstance
	// ErrInfeasible means demand cannot be placed within the SLA.
	ErrInfeasible = core.ErrInfeasible
	// ErrBadInput flags malformed runtime inputs.
	ErrBadInput = core.ErrBadInput
)

// NewInstance validates and builds a DSPP instance.
func NewInstance(cfg InstanceConfig) (*Instance, error) { return core.NewInstance(cfg) }

// SLAMatrix converts an L×V latency matrix into the SLA coefficient
// matrix a^lv of paper eq. 10 (+Inf marks pairs that can never meet the
// SLA; they are excluded from the placement graph).
func SLAMatrix(latency [][]float64, cfg SLAConfig) ([][]float64, error) {
	return core.SLAMatrix(latency, cfg)
}

// NewController creates an MPC controller with prediction horizon W ≥ 1.
func NewController(inst *Instance, horizon int, opts ...ControllerOption) (*Controller, error) {
	return core.NewController(inst, horizon, opts...)
}

// WithQPOptions overrides the interior-point solver settings of a
// controller.
func WithQPOptions(opts QPOptions) ControllerOption { return core.WithQPOptions(opts) }

// WithInitialState sets a controller's starting allocation.
func WithInitialState(s State) ControllerOption { return core.WithInitialState(s) }

// WithDegradation enables or disables the controller's graceful-
// degradation ladder (enabled by default): on solver failure the step
// retries cold, then solves a soft-constrained relaxation that sheds
// demand, then holds the last allocation projected onto the surviving
// capacity — and reports the rung used on StepResult.Degradation.
func WithDegradation(enabled bool) ControllerOption { return core.WithDegradation(enabled) }

// WithShedPenalty overrides the linear penalty per unit of shed demand in
// the soft-relaxation rung (default core.DefaultShedPenalty).
func WithShedPenalty(penalty float64) ControllerOption { return core.WithShedPenalty(penalty) }

// WithBudget gives every controller step a wall-clock budget: the hard
// solve runs under a deadline and, when it fires, the step degrades to
// the anytime rung — the solver's best iterate so far, projected onto
// the capacity bounds — instead of overrunning the control period.
// Repeated misses back off the deadline exponentially so the ladder
// escalates to cheaper rungs sooner. Zero disables budgeting.
func WithBudget(d time.Duration) ControllerOption { return core.WithBudget(d) }

// DefaultQPOptions returns the recommended interior-point settings.
func DefaultQPOptions() QPOptions { return qp.DefaultOptions() }
