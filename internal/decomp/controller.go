package decomp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dspp/internal/core"
	"dspp/internal/telemetry"
)

// DecomposeDecision is the cost-model verdict behind the controller's
// monolithic bypass.
type DecomposeDecision struct {
	// Bypass is true when one monolithic solve is modeled to beat the
	// coordinated sharded solve.
	Bypass bool
	// Ratio is the modeled coordinated cost relative to one monolithic
	// solve (< 1 favors decomposition).
	Ratio float64
	// Rounds is the coordination round count the model expected.
	Rounds int
}

// DecideBypass models whether coordinating the given partition beats one
// monolithic solve of the whole instance. A horizon solve costs about one
// unit per feasible pair — the block-angular band work, linear in the pair
// count — plus bypassSchurWeight per cubed data center: the dense Schur
// complement of the capacity rows, C·W rows refactored every iteration. A
// shard pays the same on its own pairs and on the DCs its locations
// reach. The expected round count grows with the fraction of DCs whose
// capacity is shared across shards, since every shared DC is a coupling
// the quota loop must re-price (~3 rounds at 20% shared, ~11 near-total
// sharing); follow-on rounds run warm, so they are charged at half a
// cold fan-out.
//
// Calibrated at W = 2 on a 2-vCPU box, where the measured coordinated
// cost was 1.35–3.3× the monolithic solve at every size from n120 to
// n2000: shards split the linear term without shrinking it, and the
// rounds multiply it. The model therefore bypasses all of them, and only
// predicts a win once the C³ term dominates (a few thousand locations),
// which no record covers yet.
func DecideBypass(inst *core.Instance, part *Partition, opt Options) DecomposeDecision {
	opt = opt.withDefaults()
	var buf []int
	cost := func(locations []int) float64 {
		var pairs float64
		dcs := make(map[int]bool)
		for _, v := range locations {
			buf = inst.FeasibleDCs(v, buf[:0])
			pairs += float64(len(buf))
			for _, l := range buf {
				dcs[l] = true
			}
		}
		c := float64(len(dcs))
		return pairs + bypassSchurWeight*c*c*c
	}
	var sub float64
	all := make([]int, 0, inst.NumLocations())
	for _, sh := range part.Shards {
		sub += cost(sh.Locations)
		all = append(all, sh.Locations...)
	}
	sharedFrac := 0.0
	if l := inst.NumDataCenters(); l > 0 {
		sharedFrac = float64(len(part.SharedDCs)) / float64(l)
	}
	rounds := 1 + int(math.Round(10*sharedFrac))
	if rounds > opt.MaxRounds {
		rounds = opt.MaxRounds
	}
	const beta = 0.5 // a warm follow-on round relative to the cold fan-out
	ratio := sub / cost(all) * (1 + beta*float64(rounds-1))
	return DecomposeDecision{
		Bypass: opt.BypassRatio >= 0 && ratio >= opt.BypassRatio,
		Ratio:  ratio,
		Rounds: rounds,
	}
}

// bypassSchurWeight is the cost of one cubed data center relative to one
// feasible pair in DecideBypass's solve-cost model, fitted to monolithic
// cold solves at W = 2 (n1000/100 DCs and n2000/200 DCs split their time
// about evenly between the two terms).
const bypassSchurWeight = 5e-3

// Controller is the decomposed MPC controller: the drop-in continental-
// scale replacement for core.Controller. It satisfies sim.Policy,
// sim.CtxPolicy, and sim.DegradationReporter structurally, so the
// simulation engine drives it like any other policy.
//
// Small instances (fewer than Options.BypassBelow locations, or a
// partition that yields a single shard) bypass decomposition entirely
// and delegate to a plain core.Controller — the coordination machinery
// only pays for itself once there are regions to separate.
type Controller struct {
	inst   *core.Instance
	w      int
	opt    Options
	solver *Solver // nil when bypassed
	byp    *core.Controller
	// fallback is the lazily built monolithic controller behind the
	// DegradeMonolithic rung; constructing it allocates the full
	// instance's dense horizon structure, so it only exists after the
	// first coordination failure.
	fallback *core.Controller

	state   core.State
	lastDeg core.Degradation
	lastSol *Solution
	stall   time.Duration
	label   string
	tel     *telemetry.Hub
	dec     DecomposeDecision
}

// ControllerOption customizes a Controller.
type ControllerOption func(*Controller)

// WithLabel overrides the policy name reported to the simulator.
func WithLabel(label string) ControllerOption {
	return func(c *Controller) { c.label = label }
}

// WithInitialState sets the starting allocation (default: all zeros).
func WithInitialState(s core.State) ControllerOption {
	return func(c *Controller) { c.state = s.Clone() }
}

// NewController builds the partition, the per-shard solver, and the MPC
// wrapper for the instance.
func NewController(inst *core.Instance, horizon int, opt Options, opts ...ControllerOption) (*Controller, error) {
	if inst == nil {
		return nil, fmt.Errorf("nil instance: %w", ErrBadConfig)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("horizon %d: %w", horizon, ErrBadConfig)
	}
	opt = opt.withDefaults()
	c := &Controller{inst: inst, w: horizon, opt: opt, tel: opt.Telemetry}
	for _, o := range opts {
		o(c)
	}
	if c.state == nil {
		c.state = inst.NewState()
	} else if err := inst.CheckState(c.state); err != nil {
		return nil, err
	}

	bypass := inst.NumLocations() < opt.BypassBelow
	if !bypass {
		part, err := NewPartition(inst, opt.MaxShardSize)
		if err != nil {
			return nil, err
		}
		switch {
		case len(part.Shards) <= 1:
			bypass = true
		default:
			// The partition is real; let the cost model decide whether
			// coordinating it actually beats one monolithic solve.
			c.dec = DecideBypass(inst, part, opt)
			if opt.BypassRatio >= 0 && c.dec.Bypass {
				bypass = true
				break
			}
			c.solver, err = NewSolver(inst, horizon, part, opt)
			if err != nil {
				return nil, err
			}
		}
	}
	if bypass {
		byp, err := core.NewController(inst, horizon,
			core.WithQPOptions(opt.QP),
			core.WithInitialState(c.state),
			core.WithTelemetry(opt.Telemetry))
		if err != nil {
			return nil, err
		}
		c.byp = byp
	}
	return c, nil
}

// Name implements sim.Policy.
func (c *Controller) Name() string {
	if c.label != "" {
		return c.label
	}
	if c.byp != nil {
		return fmt.Sprintf("mpc-w%d", c.w)
	}
	return fmt.Sprintf("decomp-w%d-s%d", c.w, c.solver.Shards())
}

// Horizon returns the prediction window W.
func (c *Controller) Horizon() int { return c.w }

// Bypassed reports whether the controller delegates to a monolithic
// core.Controller instead of coordinating shards.
func (c *Controller) Bypassed() bool { return c.byp != nil }

// BypassDecision returns the cost-model verdict computed at build time
// (zero value when the instance was too small for a partition to be
// built at all).
func (c *Controller) BypassDecision() DecomposeDecision { return c.dec }

// Partition returns the geographic partition (nil when the instance was
// small enough to bypass decomposition).
func (c *Controller) Partition() *Partition {
	if c.solver == nil {
		return nil
	}
	return c.solver.Partition()
}

// State implements sim.Policy.
func (c *Controller) State() core.State {
	if c.byp != nil {
		return c.byp.State()
	}
	return c.state.Clone()
}

// SetState overwrites the current allocation and drops the per-shard
// warm starts.
func (c *Controller) SetState(s core.State) error {
	if c.byp != nil {
		return c.byp.SetState(s)
	}
	if err := c.inst.CheckState(s); err != nil {
		return err
	}
	c.state = s.Clone()
	c.solver.Reset()
	return nil
}

// LastDegradation implements sim.DegradationReporter.
func (c *Controller) LastDegradation() core.Degradation { return c.lastDeg }

// LastSolution returns the previous coordinated step's Solution with its
// accounting — rounds and shard solves. Nil when bypassed, before the
// first step, or when the step fell back to the monolithic rung.
func (c *Controller) LastSolution() *Solution { return c.lastSol }

// LastExplain implements core.Explainer: the dual-price surface of the
// last executed step. On the coordinated path it reads the Solution's
// retained final-round duals and the quota split they were computed
// under; a step that fell back to the monolithic rung reports that
// solve's duals instead. Zero Explain before the first step.
func (c *Controller) LastExplain() core.Explain {
	if c.byp != nil {
		return c.byp.LastExplain()
	}
	if s := c.lastSol; s != nil {
		return core.Explain{
			CapacityDuals: append([]float64(nil), s.CapacityDuals...),
			Quotas:        append([]float64(nil), s.Quotas...),
			ShardOfDC:     append([]int(nil), s.ShardOfDC...),
		}
	}
	if c.fallback != nil {
		return c.fallback.LastExplain()
	}
	return core.Explain{}
}

// SetStall injects artificial solver latency before each step — the same
// test plumbing as core.Controller.SetStall (the simulator's `stall`
// fault, the daemon's watchdog demos). Zero clears it.
func (c *Controller) SetStall(d time.Duration) {
	if c.byp != nil {
		c.byp.SetStall(d)
		return
	}
	c.stall = d
}

// Step implements sim.Policy.
func (c *Controller) Step(demand, prices [][]float64) (core.State, core.State, error) {
	return c.StepCtx(context.Background(), demand, prices)
}

// StepCtx implements sim.CtxPolicy: one coordinated MPC step. When the
// coordination loop fails (a shard solve error) or exhausts its round
// budget without converging, the step falls back to one monolithic
// horizon QP over the full instance — the DegradeMonolithic rung — and
// from there inherits core.Controller's remaining ladder (cold restart,
// soft relaxation, hold-last). With Options.NoFallback a non-converged
// iterate is applied as-is (it is feasible; only optimality is at stake)
// and shard errors surface to the caller. A context deadline that stops
// coordination between rounds applies the last complete iterate as the
// DegradeAnytime rung — feasible, not ε-stable — rather than starting a
// monolithic solve there is no time for.
func (c *Controller) StepCtx(ctx context.Context, demand, prices [][]float64) (core.State, core.State, error) {
	if c.byp != nil {
		res, err := c.byp.StepCtx(ctx, demand, prices)
		if err != nil {
			return nil, nil, err
		}
		c.lastDeg = res.Degradation
		return res.Applied, res.NewState, nil
	}
	if c.tel == nil {
		return c.stepCtx(ctx, demand, prices)
	}
	sp := c.tel.Tracer().Start(telemetry.SpanMPCStep, telemetry.SpanIDFromContext(ctx))
	applied, state, err := c.stepCtx(telemetry.ContextWithSpan(ctx, sp), demand, prices)
	if err != nil {
		sp.SetAttr(telemetry.Str("outcome", "error"))
	} else {
		sp.SetAttr(telemetry.Str("mode", c.lastDeg.Mode.String()))
	}
	sp.End()
	return applied, state, err
}

func (c *Controller) stepCtx(ctx context.Context, demand, prices [][]float64) (core.State, core.State, error) {
	if c.stall > 0 {
		// The injected latency counts against the caller's deadline, like
		// a genuinely slow coordination fan-out would.
		t := time.NewTimer(c.stall)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, nil, ctx.Err()
		}
	}
	c.lastSol = nil
	sol, err := c.solver.SolveCtx(ctx, c.state, demand, prices)
	switch {
	case err == nil && (sol.Converged || sol.DeadlineHit || c.opt.NoFallback):
		var deg core.Degradation
		if sol.ColdRestarts > 0 {
			deg.Mode = core.DegradeColdRestart
			deg.ColdRestarts = sol.ColdRestarts
		}
		if !sol.Converged {
			deg.Cause = fmt.Sprintf("coordination stopped after %d rounds without converging", sol.Rounds)
		}
		if sol.DeadlineHit {
			// The period deadline stopped coordination between rounds:
			// the applied iterate is feasible but not ε-stable — the
			// decomposed analogue of the solver's anytime rung. A
			// monolithic fallback would be pointless here; there is no
			// time left to solve anything bigger.
			deg.Mode = core.DegradeAnytime
			deg.Cause = fmt.Sprintf("period deadline reached after %d coordination rounds", sol.Rounds)
			if sol.Partial {
				deg.Cause += " (final round partial: anytime shard iterates)"
			}
		}
		c.lastDeg = deg
		c.lastSol = sol
		c.state = sol.State
		return sol.Applied, sol.State, nil
	case err != nil && (errors.Is(err, core.ErrBadInput) || ctx.Err() != nil):
		return nil, nil, err
	case err != nil && c.opt.NoFallback:
		return nil, nil, err
	}

	// Monolithic rung: solve the full instance once, exactly. The deeper
	// ladder rungs (cold restart, soft, hold) come along with the core
	// controller.
	cause := "coordination budget exhausted"
	if err != nil {
		cause = err.Error()
	}
	if c.fallback == nil {
		fb, ferr := core.NewController(c.inst, c.w, core.WithQPOptions(c.opt.QP))
		if ferr != nil {
			return nil, nil, ferr
		}
		c.fallback = fb
	}
	if err := c.fallback.SetState(c.state); err != nil {
		return nil, nil, err
	}
	res, err := c.fallback.StepCtx(ctx, demand, prices)
	if err != nil {
		return nil, nil, err
	}
	deg := res.Degradation
	// A clean (or merely cold-restarted) monolithic solve reports the
	// monolithic rung; a deeper rung keeps its own label.
	if deg.Mode == core.DegradeNone || deg.Mode == core.DegradeColdRestart {
		deg.Mode = core.DegradeMonolithic
	}
	if deg.Cause == "" {
		deg.Cause = cause
	}
	c.lastDeg = deg
	c.state = res.NewState.Clone()
	c.solver.Reset() // shard warm starts no longer match the trajectory
	return res.Applied, res.NewState, nil
}
