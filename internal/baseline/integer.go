package baseline

import (
	"fmt"

	"dspp/internal/core"
)

// IntegerMPC wraps the continuous MPC controller with the paper's §VIII
// integrality concern handled by post-processing: every period the
// continuous plan's first state is rounded up per pair (with capacity
// repair), and the integer state is fed back into the next solve. The
// paper argues the relative gap is small for services needing tens to
// hundreds of servers; the ablation bench measures it.
type IntegerMPC struct {
	ctrl *core.Controller
	inst *core.Instance
	// lastOverflow records per-DC capacity overflow the rounding repair
	// could not absorb in the latest step (zero in healthy operation).
	lastOverflow []float64
}

// NewIntegerMPC builds the policy with prediction horizon W.
func NewIntegerMPC(inst *core.Instance, horizon int) (*IntegerMPC, error) {
	ctrl, err := core.NewController(inst, horizon)
	if err != nil {
		return nil, err
	}
	return &IntegerMPC{ctrl: ctrl, inst: inst}, nil
}

// Name implements sim.Policy.
func (p *IntegerMPC) Name() string { return fmt.Sprintf("integer-mpc-w%d", p.ctrl.Horizon()) }

// State implements sim.Policy.
func (p *IntegerMPC) State() core.State { return p.ctrl.State() }

// LastOverflow returns the per-DC capacity overflow of the latest step
// (nil before the first step). Nonzero entries mean the integer repair
// had to exceed a capacity bound to preserve the SLA.
func (p *IntegerMPC) LastOverflow() []float64 {
	if p.lastOverflow == nil {
		return nil
	}
	return append([]float64(nil), p.lastOverflow...)
}

// Step implements sim.Policy: continuous solve, round up, repair, feed
// back the integral state.
func (p *IntegerMPC) Step(demand, prices [][]float64) (core.State, core.State, error) {
	before := p.ctrl.State()
	res, err := p.ctrl.Step(demand, prices)
	if err != nil {
		return nil, nil, err
	}
	rounded, err := p.inst.RoundUp(res.NewState, demand[0])
	if err != nil {
		return nil, nil, err
	}
	p.lastOverflow = rounded.Overflow
	if err := p.ctrl.SetState(rounded.X); err != nil {
		return nil, nil, err
	}
	applied := diffState(rounded.X, before)
	return applied, rounded.X.Clone(), nil
}
