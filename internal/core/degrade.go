package core

import (
	"fmt"
	"math"
)

// DegradationMode identifies which rung of the controller's degradation
// ladder produced a step's plan.
type DegradationMode int

const (
	// DegradeNone: the hard horizon QP solved normally.
	DegradeNone DegradationMode = iota
	// DegradeAnytime: the hard QP ran out of wall-clock budget and the
	// plan is the solver's best interior-point iterate at the deadline,
	// projected onto the capacity bounds so it is implementable. Above
	// the soft rung: the plan still optimizes the true objective, it is
	// just not converged.
	DegradeAnytime
	// DegradeSoft: the hard QP was infeasible or kept failing, and the
	// soft-constrained relaxation produced the plan (demand may be shed).
	DegradeSoft
	// DegradeHold: even the relaxation failed; the controller held its
	// last allocation, projected onto the surviving capacity.
	DegradeHold
)

// String returns the mode's report label.
func (m DegradationMode) String() string {
	switch m {
	case DegradeNone:
		return "none"
	case DegradeAnytime:
		return "anytime"
	case DegradeSoft:
		return "soft"
	case DegradeHold:
		return "hold"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Degradation records how a controller step was produced: which rung of
// the ladder (normal solve → anytime iterate → soft relaxation →
// hold-last) and how much constraint violation the chosen plan carries. A
// zero value means a clean, fully-constrained step.
type Degradation struct {
	// Mode is the ladder rung that produced the plan.
	Mode DegradationMode
	// ShedDemand is the demand (req/s) shed in the applied period by a
	// soft-mode plan.
	ShedDemand float64
	// HorizonShed is the total demand shed across the planned horizon.
	HorizonShed float64
	// CapacityTrim is the number of servers the hold projection dropped to
	// fit the surviving capacity.
	CapacityTrim float64
	// AnytimeIterations is the number of IPM iterations the deadline
	// snapshot completed (anytime mode only).
	AnytimeIterations int
	// Cause is the error the ladder recovered from ("" for a clean step).
	Cause string
	// Loose marks a plan whose solve ran to the iteration cap and was
	// accepted at the solver's loosened tolerance. It is a quality flag,
	// not a ladder rung: a loose step is not Degraded, but it is not
	// clean either.
	Loose bool
}

// Degraded reports whether the step deviated from the normal solve path.
func (d Degradation) Degraded() bool {
	return d.Mode != DegradeNone
}

// String renders a compact report line.
func (d Degradation) String() string {
	if !d.Degraded() {
		if d.Loose {
			return "loose"
		}
		return "ok"
	}
	s := d.Mode.String()
	if d.Loose {
		s += " loose"
	}
	if d.ShedDemand > 0 || d.HorizonShed > 0 {
		s += fmt.Sprintf(" shed=%.1f(horizon %.1f)", d.ShedDemand, d.HorizonShed)
	}
	if d.CapacityTrim > 0 {
		s += fmt.Sprintf(" trimmed=%.1f", d.CapacityTrim)
	}
	if d.Mode == DegradeAnytime {
		s += fmt.Sprintf(" iters=%d", d.AnytimeIterations)
	}
	return s
}

// projectPlanCapacity makes a partial-iterate plan implementable: every
// planned state whose per-DC load exceeds the capacity is scaled back
// proportionally (the same rule as holdProjection), the controls are
// recomputed as the differences of the corrected states, and the objective
// is re-evaluated at the corrected trajectory. Returns the servers trimmed
// from the applied step (t = 0), the only state the MPC loop executes.
// Mutates the plan in place; duals keep their snapshot values.
func (in *Instance) projectPlanCapacity(plan *Plan, x0 State, prices [][]float64) float64 {
	var trimmed float64
	for t := range plan.X {
		x := plan.X[t]
		for l := 0; l < in.l; l++ {
			c := in.capacity[l]
			if math.IsInf(c, 1) {
				continue
			}
			var total float64
			for v := 0; v < in.v; v++ {
				total += x[l][v]
			}
			if total > c {
				scale := c / total
				for v := 0; v < in.v; v++ {
					x[l][v] *= scale
				}
				if t == 0 {
					trimmed += total - c
				}
			}
		}
	}
	prev := x0
	var obj float64
	for t := range plan.U {
		u, x := plan.U[t], plan.X[t]
		for l := range u {
			for v := range u[l] {
				u[l][v] = x[l][v] - prev[l][v]
			}
		}
		prev = x
		for _, pr := range in.pairs {
			uv := u[pr.l][pr.v]
			obj += prices[t][pr.l]*x[pr.l][pr.v] + in.reconfig[pr.l]*uv*uv
		}
	}
	plan.Objective = obj
	return trimmed
}

// holdProjection returns the allocation closest to s (by per-DC
// proportional scaling) that fits the instance's current capacities, along
// with the number of servers dropped. It is the degradation ladder's last
// rung: always well defined, no solve involved.
func (in *Instance) holdProjection(s State) (State, float64) {
	next := in.NewState()
	var trimmed float64
	for l := 0; l < in.l; l++ {
		var total float64
		for v := 0; v < in.v; v++ {
			next[l][v] = s[l][v]
			total += s[l][v]
		}
		c := in.capacity[l]
		if total > c {
			scale := c / total
			for v := 0; v < in.v; v++ {
				next[l][v] *= scale
			}
			trimmed += total - c
		}
	}
	return next, trimmed
}

// holdPlan synthesizes a full-length plan that applies the projection step
// and then holds: U[0] moves from the current state onto the projected
// one, all later controls are zero. Duals are zero — the plan carries no
// optimality information — and there is no warm-start capsule.
func (in *Instance) holdPlan(x0 State, prices [][]float64) (*Plan, float64) {
	next, trimmed := in.holdProjection(x0)
	w := len(prices)
	plan := &Plan{
		U:             make([]State, w),
		X:             make([]State, w),
		CapacityDuals: make([][]float64, w),
		DemandDuals:   make([][]float64, w),
	}
	u0 := in.NewState()
	for l := 0; l < in.l; l++ {
		for v := 0; v < in.v; v++ {
			u0[l][v] = next[l][v] - x0[l][v]
			plan.Objective += in.reconfig[l] * u0[l][v] * u0[l][v]
		}
	}
	for t := 0; t < w; t++ {
		if t == 0 {
			plan.U[t] = u0
		} else {
			plan.U[t] = in.NewState()
		}
		plan.X[t] = next
		plan.CapacityDuals[t] = make([]float64, in.l)
		plan.DemandDuals[t] = make([]float64, in.v)
		for l := 0; l < in.l; l++ {
			for v := 0; v < in.v; v++ {
				plan.Objective += prices[t][l] * next[l][v]
			}
		}
	}
	return plan, trimmed
}
