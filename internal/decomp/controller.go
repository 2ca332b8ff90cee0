package decomp

import (
	"context"

	"dspp/internal/core"
)

// Controller is a forward onto core.Controller, the one continental MPC
// controller. It exists only so the frozen benchmark module builds, and
// keeps exactly the methods that module calls; the next change to the
// benchmark steps core.Controller directly and deletes this type.
type Controller struct {
	ctrl    *core.Controller
	lastDeg core.Degradation
}

// NewController builds a core.Controller for the instance with opt's QP
// options and telemetry hub. No other option has an effect.
func NewController(inst *core.Instance, horizon int, opt Options) (*Controller, error) {
	ctrl, err := core.NewController(inst, horizon,
		core.WithQPOptions(opt.QP),
		core.WithTelemetry(opt.Telemetry))
	if err != nil {
		return nil, err
	}
	return &Controller{ctrl: ctrl}, nil
}

// State returns a copy of the current allocation.
func (c *Controller) State() core.State { return c.ctrl.State() }

// StepCtx runs one MPC step and returns the applied control and the new
// allocation.
func (c *Controller) StepCtx(ctx context.Context, demand, prices [][]float64) (core.State, core.State, error) {
	res, err := c.ctrl.StepCtx(ctx, demand, prices)
	if err != nil {
		return nil, nil, err
	}
	c.lastDeg = res.Degradation
	return res.Applied, res.NewState, nil
}

// LastDegradation reports the ladder rung of the last step.
func (c *Controller) LastDegradation() core.Degradation { return c.lastDeg }

// LastExplain returns the dual-price surface of the last step.
func (c *Controller) LastExplain() core.Explain { return c.ctrl.LastExplain() }

// LastSolution is always nil: no step coordinates shards.
func (c *Controller) LastSolution() *Solution { return nil }

// Partition is always nil: no partition is built.
func (c *Controller) Partition() *Partition { return nil }
