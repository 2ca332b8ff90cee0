package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dspp/internal/qp"
	"dspp/internal/telemetry"
)

// Controller is the paper's MPC resource controller (Algorithm 1): at each
// control period it solves the horizon QP from the current state and
// applies only the first control action.
//
// The controller degrades gracefully instead of erroring when a solve
// fails (see StepCtx).
type Controller struct {
	inst    *Instance
	horizon int
	opts    qp.Options
	state   State
	// hard and soft are the horizon sessions the steps solve on. The
	// first step builds hard, and soft too under a budget; an unbudgeted
	// controller builds soft at its first soft rung. Keeping them across
	// steps keeps the solver state and the plan arenas live, so a warm
	// step allocates almost nothing.
	hard, soft *HorizonSession
	// warm carries the previous step's QP iterates; each MPC step seeds
	// its solve from the prior plan shifted by one period, which cuts
	// interior-point iterations across the closed loop.
	warm *HorizonWarm
	// budget, when positive, is the wall-clock allowance per StepCtx: the
	// hard solve runs under a deadline and returns its best iterate when
	// it fires (the anytime rung), fallback rungs divide what remains, and
	// a slice is always reserved for the hold rung so the ladder itself
	// cannot overrun. missStreak counts consecutive deadline misses and
	// exponentially shrinks the hard solve's share, so a persistently slow
	// solver escalates to cheaper rungs earlier instead of burning the
	// whole budget every period. stall is test-injected solver latency
	// (the faults package's stall fault), slept before the solve begins.
	budget     time.Duration
	missStreak int
	stall      time.Duration
	// lastDuals retains the horizon-summed capacity dual prices of the
	// last executed step's plan — the explain surface (see LastExplain).
	// One buffer, refreshed per step; nil until the first step.
	lastDuals []float64
	// tel, when non-nil, receives an mpc_step span per StepCtx and wires
	// the QP solver's counters through opts.Hooks.
	tel *telemetry.Hub
}

// ControllerOption customizes a Controller.
type ControllerOption func(*Controller)

// WithInitialState sets the starting allocation (default: all zeros).
func WithInitialState(s State) ControllerOption {
	return func(c *Controller) { c.state = s.Clone() }
}

// WithBudget sets the per-step wall-clock budget, enabling deadline-
// bounded (anytime) solving: each StepCtx must produce a plan within
// roughly this allowance, degrading through the ladder — best-iterate-at-
// deadline, then soft relaxation, then hold — rather than overrunning.
// An eighth of the budget is reserved for the hold rung; consecutive
// deadline misses exponentially shrink the hard solve's share (backoff)
// until a solve completes cleanly again. Zero or negative disables
// budgeting.
func WithBudget(d time.Duration) ControllerOption {
	return func(c *Controller) { c.budget = d }
}

// BudgetGrace is the measurement slack added on top of a step budget
// before a period counts as an overrun, in the simulator and the daemon
// alike: the ladder's hold rung runs after the deadline fires, so a
// budgeted step legitimately finishes a hair late, never unboundedly late.
const BudgetGrace = 5 * time.Millisecond

// WithTelemetry attaches a telemetry hub: every StepCtx emits an
// mpc_step span (carrying the degradation outcome) and the underlying QP
// solves report their iteration/factorization counters through the hub.
// A nil hub leaves telemetry disabled.
func WithTelemetry(h *telemetry.Hub) ControllerOption {
	return func(c *Controller) { c.tel = h }
}

// NewController creates an MPC controller with prediction horizon W ≥ 1.
func NewController(inst *Instance, horizon int, opts ...ControllerOption) (*Controller, error) {
	if inst == nil {
		return nil, fmt.Errorf("nil instance: %w", ErrBadInput)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("horizon %d: %w", horizon, ErrBadInput)
	}
	c := &Controller{
		inst:    inst,
		horizon: horizon,
		opts:    qp.DefaultOptions(),
		state:   inst.NewState(),
	}
	for _, o := range opts {
		o(c)
	}
	if c.tel != nil {
		c.opts.Hooks = c.tel.QPHooks()
	}
	if err := inst.CheckState(c.state); err != nil {
		return nil, err
	}
	return c, nil
}

// Instance returns the controlled DSPP instance.
func (c *Controller) Instance() *Instance { return c.inst }

// Horizon returns the prediction window W.
func (c *Controller) Horizon() int { return c.horizon }

// State returns a copy of the current allocation.
func (c *Controller) State() State { return c.state.Clone() }

// SetState overwrites the current allocation (e.g. after external scaling).
func (c *Controller) SetState(s State) error {
	if err := c.inst.CheckState(s); err != nil {
		return err
	}
	c.state = s.Clone()
	// The previous plan was computed for a different trajectory; drop it
	// rather than warm-start from a stale point.
	c.warm = nil
	return nil
}

// SetStall injects artificial solver latency: every subsequent StepCtx
// sleeps d before its solve begins, consuming step budget exactly as a
// slow factorization would. Zero clears the stall. This is the plumbing
// the simulator's `stall` fault uses to exercise the deadline paths
// deterministically.
func (c *Controller) SetStall(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.stall = d
}

// Budget returns the per-step wall-clock budget (zero when unbudgeted).
func (c *Controller) Budget() time.Duration { return c.budget }

// WarmCapsule returns the warm-start capsule from the last successful
// step (nil before the first solve or after SetState). Together with
// RestoreWarm it lets a long-running process checkpoint the controller:
// a controller rebuilt from the same state and capsule continues with
// bit-identical solves.
func (c *Controller) WarmCapsule() *HorizonWarm { return c.warm }

// RestoreWarm installs a warm-start capsule (typically from a
// checkpoint's WarmState via ImportWarm). Call it after SetState, which
// clears the capsule. A nil or shape-mismatched capsule simply cold-
// starts the next solve.
func (c *Controller) RestoreWarm(w *HorizonWarm) { c.warm = w }

// RestoreMissStreak overwrites the consecutive-deadline-miss counter,
// re-arming the anytime backoff exactly where a checkpoint left it.
func (c *Controller) RestoreMissStreak(n int) {
	if n < 0 {
		n = 0
	}
	c.missStreak = n
}

// MissStreak returns the current run of consecutive deadline misses; it
// resets to zero whenever a hard solve completes inside its share.
func (c *Controller) MissStreak() int { return c.missStreak }

// StepResult reports one executed MPC step. Applied, NewState and Plan
// live in the controller's session buffers: they stay valid until the end
// of the next-but-one step, so a caller that keeps them longer must clone
// them.
type StepResult struct {
	// Applied is the executed control u_{k|k} (the plan's first step).
	Applied State
	// NewState is the allocation after applying the control.
	NewState State
	// Plan is the full horizon solution (U[0] == Applied).
	Plan *Plan
	// Degradation records how the plan was produced: DegradeNone for a
	// clean solve, otherwise the ladder rung used and the violation mass.
	// Experiments chart it to measure robustness.
	Degradation Degradation
}

// Step executes one period of Algorithm 1: solve the horizon QP for the
// forecasts and apply the first control. Demand[t][v] and Prices[t][l]
// must cover t = 0..W−1 (forecasts for the next W periods); shorter
// forecasts are an error, longer ones are truncated to W.
func (c *Controller) Step(demand, prices [][]float64) (*StepResult, error) {
	return c.StepCtx(context.Background(), demand, prices)
}

// StepCtx is Step with cooperative cancellation and the graceful-
// degradation ladder. When a solve fails the controller walks down the
// ladder instead of erroring:
//
//  1. hard QP, warm-started from the previous plan's capsule when the
//     solver admits it (cold otherwise; see HorizonSession.SolveCtx);
//  2. anytime — with a WithBudget allowance, a hard solve that hits its
//     share of the budget returns its best interior-point iterate,
//     projected onto capacity so the plan is implementable (only under a
//     budget; without one a deadline never fires from inside the step);
//  3. soft-constrained relaxation — capacity stays hard, demand gains
//     slack priced at DefaultShedPenalty, so the step reports shed
//     demand instead of failing when the surviving capacity cannot carry
//     the load;
//  4. hold-last-plan — the current allocation projected onto the
//     surviving capacity, with zero further movement. Under a budget a
//     reserved slice of the allowance belongs to this rung, so the
//     ladder as a whole cannot overrun.
//
// Input-validation errors (ErrBadInput) and context cancellation always
// propagate: the ladder only absorbs solver-level failures (infeasibility,
// numerical breakdown, iteration exhaustion). The returned StepResult's
// Degradation field says which rung produced the plan. Its Applied,
// NewState and Plan stay valid until the end of the next-but-one step
// (see StepResult).
func (c *Controller) StepCtx(ctx context.Context, demand, prices [][]float64) (*StepResult, error) {
	if c.tel == nil {
		return c.stepCtx(ctx, demand, prices)
	}
	sp := c.tel.Tracer().Start(telemetry.SpanMPCStep, telemetry.SpanIDFromContext(ctx))
	res, err := c.stepCtx(telemetry.ContextWithSpan(ctx, sp), demand, prices)
	if res != nil {
		d := res.Degradation
		sp.SetAttr(
			telemetry.Str("mode", d.Mode.String()),
			telemetry.Num("shed", d.ShedDemand),
			telemetry.Num("qp_iterations", float64(res.Plan.QPIterations)),
		)
	} else {
		sp.SetAttr(telemetry.Str("outcome", "error"))
	}
	sp.End()
	return res, err
}

// anytimeBackoffCap bounds the exponential backoff on consecutive
// deadline misses: past 2^4 the hard solve's share is small enough that
// further halving only adds noise.
const anytimeBackoffCap = 4

// holdFloorDiv is the fraction of the step budget reserved for the rungs
// below the hard solve (soft headroom plus the hold projection): budget/8.
const holdFloorDiv = 8

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func (c *Controller) stepCtx(ctx context.Context, demand, prices [][]float64) (*StepResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("step: %w", err)
	}
	if len(demand) < c.horizon || len(prices) < c.horizon {
		return nil, fmt.Errorf("forecasts cover %d/%d periods, horizon %d: %w",
			len(demand), len(prices), c.horizon, ErrBadInput)
	}
	budgeted := c.budget > 0
	// The sessions are built before the budget clock starts: the budget
	// covers solving, not their one-time construction. A budgeted
	// controller builds the soft session here too, so the soft rung's
	// share is not spent building it.
	if c.hard == nil {
		hard, err := c.inst.NewHorizonSession(c.horizon, c.opts)
		if err != nil {
			return nil, err
		}
		hard.SetAnytime(budgeted)
		c.hard = hard
	}
	if budgeted {
		if _, err := c.softSession(); err != nil {
			return nil, err
		}
	}
	// The budget clock starts before the injected stall: the stall models
	// solver latency, so it consumes the step's allowance like real work.
	var stepStart time.Time
	var holdFloor time.Duration
	if budgeted {
		stepStart = time.Now()
		holdFloor = c.budget / holdFloorDiv
	}
	if c.stall > 0 {
		sleepCtx(ctx, c.stall)
	}
	input := HorizonInput{
		X0:        c.state,
		Demand:    demand[:c.horizon],
		Prices:    prices[:c.horizon],
		Warm:      c.warm,
		WarmShift: 1,
	}
	var deg Degradation
	solveCtx := ctx
	skipHard := false
	if budgeted {
		avail := c.budget - holdFloor - time.Since(stepStart)
		boff := c.missStreak
		if boff > anytimeBackoffCap {
			boff = anytimeBackoffCap
		}
		hardBudget := avail / (1 << uint(boff))
		if hardBudget > 0 {
			var cancel context.CancelFunc
			solveCtx, cancel = context.WithTimeout(ctx, hardBudget)
			defer cancel()
		} else {
			// The stall (or backoff) consumed the whole solving share
			// before the hard rung could start: count the miss and drop
			// straight down the ladder.
			skipHard = true
		}
	}
	var plan *Plan
	var err error
	if skipHard {
		err = fmt.Errorf("step budget %v exhausted before the hard solve: %w", c.budget, context.DeadlineExceeded)
		c.missStreak++
	} else {
		plan, err = c.hard.SolveCtx(solveCtx, input)
	}
	if err != nil {
		// Anytime rung: the hard solve's deadline fired and it handed back
		// its best iterate. Project it onto capacity and apply it — the
		// plan optimizes the true objective, it is just not converged.
		if budgeted && plan != nil && errors.Is(err, qp.ErrDeadline) && ctx.Err() == nil {
			c.missStreak++
			deg.Mode = DegradeAnytime
			deg.Cause = err.Error()
			if plan.Anytime != nil {
				deg.AnytimeIterations = plan.Anytime.Iterations
			}
			deg.CapacityTrim = c.inst.projectPlanCapacity(plan, c.state, input.Prices)
		} else {
			if errors.Is(err, ErrBadInput) || ctx.Err() != nil {
				return nil, err
			}
			deg.Cause = err.Error()
			softCtx := ctx
			skipSoft := false
			if budgeted {
				// The soft rung gets whatever remains above the hold floor.
				remain := c.budget - holdFloor - time.Since(stepStart)
				if remain > 0 {
					var softCancel context.CancelFunc
					softCtx, softCancel = context.WithTimeout(ctx, remain)
					defer softCancel()
				} else {
					skipSoft = true
				}
			}
			var soft *Plan
			softErr := context.DeadlineExceeded
			if !skipSoft {
				soft, softErr = c.solveSoft(softCtx, input)
			}
			switch {
			case softErr == nil:
				deg.Mode = DegradeSoft
				plan = soft
				for _, s := range soft.Shed[0] {
					deg.ShedDemand += s
				}
				deg.HorizonShed = soft.TotalShed()
			case ctx.Err() != nil:
				return nil, softErr
			default:
				// Last rung: hold the current allocation, projected onto the
				// surviving capacity. Never fails, and under a budget its
				// reserved floor guarantees the ladder finishes in time.
				deg.Mode = DegradeHold
				plan, deg.CapacityTrim = c.inst.holdPlan(c.state, input.Prices)
			}
		}
	} else if budgeted {
		// A clean in-budget hard solve ends the miss streak: the backoff
		// exists to tame a persistently slow solver, not to punish one
		// recovered from a transient stall.
		c.missStreak = 0
	}
	deg.Loose = plan.Loose
	c.warm = plan.Warm
	// c.state is the controller's own storage (State, SetState and
	// WithInitialState copy across it), so the new state is copied in.
	for l, row := range plan.X[0] {
		copy(c.state[l], row)
	}
	if c.lastDuals == nil {
		c.lastDuals = make([]float64, c.inst.l)
	}
	plan.TotalCapacityDualsInto(c.lastDuals)
	return &StepResult{
		Applied:     plan.U[0],
		NewState:    plan.X[0],
		Plan:        plan,
		Degradation: deg,
	}, nil
}

// softSession returns the soft session, building it on first use.
func (c *Controller) softSession() (*HorizonSession, error) {
	if c.soft == nil {
		soft, err := c.inst.newHorizonSession(c.horizon, c.opts, true)
		if err != nil {
			return nil, err
		}
		c.soft = soft
	}
	return c.soft, nil
}

// solveSoft solves the soft relaxation of input (cold: the soft session
// ignores input.Warm).
func (c *Controller) solveSoft(ctx context.Context, input HorizonInput) (*Plan, error) {
	soft, err := c.softSession()
	if err != nil {
		return nil, err
	}
	return soft.SolveCtx(ctx, input)
}
