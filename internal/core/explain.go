package core

import (
	"math"
	"time"

	"dspp/internal/telemetry"
)

// BindingTol is the dual-price threshold above which a capacity
// constraint is reported as binding: interior-point duals of inactive
// constraints converge to zero but never reach it exactly.
const BindingTol = 1e-6

// Explain is the decision-provenance surface of a controller's last
// executed step: the dual prices the QP solution put on the capacity
// constraints. It answers "which constraint was binding, and what was
// one more server there worth" for the plan actually applied.
type Explain struct {
	// CapacityDuals[l] is the horizon-summed capacity dual price per DC
	// (the paper's λ^il reported to the infrastructure provider); zero
	// for uncapacitated or slack DCs. Nil before the first step.
	CapacityDuals []float64
}

// Binding appends to dst the DCs whose capacity dual exceeds BindingTol
// and returns the extended slice.
func (e Explain) Binding(dst []int) []int {
	for l, d := range e.CapacityDuals {
		if d > BindingTol {
			dst = append(dst, l)
		}
	}
	return dst
}

// Explainer is implemented by controllers that can reconstruct the
// dual-price provenance of their last step, such as core.Controller.
// Attribution emitters discover it by assertion, so policies without a
// dual surface simply yield records with no prices.
type Explainer interface {
	LastExplain() Explain
}

// LastExplain returns the dual-price surface of the last executed step
// (zero Explain before the first step). The slices are copies.
func (c *Controller) LastExplain() Explain {
	if c.lastDuals == nil {
		return Explain{}
	}
	return Explain{CapacityDuals: append([]float64(nil), c.lastDuals...)}
}

// NewAttribution builds one period's provenance record: the realized
// cost split per component and data center, placement churn against the
// previous period's allocation, the dual-price surface of the plan that
// produced the step, and the imputed cost of any demand the degradation
// ladder shed (at DefaultShedPenalty per unit). The record's four
// components sum to Total by construction, up to FP rounding against the
// separately accumulated CostBreakdown.
func NewAttribution(inst *Instance, period int, state, applied, prev State,
	prices []float64, cost CostBreakdown, deg Degradation,
	wall time.Duration, e Explain) (*telemetry.Attribution, error) {
	dcs, err := inst.AttributeCost(state, applied, prices)
	if err != nil {
		return nil, err
	}
	shedCost := deg.ShedDemand * DefaultShedPenalty
	a := &telemetry.Attribution{
		Period:     period,
		Shed:       shedCost,
		Total:      cost.Total() + shedCost,
		Churn:      inst.PlacementChurn(prev, state),
		ShedDemand: deg.ShedDemand,
		Mode:       deg.Mode.String(),
		WallUS:     wall.Microseconds(),
		DCs:        make([]telemetry.DCAttribution, len(dcs)),
	}
	for l, dc := range dcs {
		row := telemetry.DCAttribution{
			DC:        l,
			Resource:  dc.Resource,
			Bandwidth: dc.Bandwidth,
			Reconfig:  dc.Reconfig,
			Servers:   dc.Servers,
		}
		if l < len(e.CapacityDuals) {
			row.Dual = e.CapacityDuals[l]
			row.Binding = e.CapacityDuals[l] > BindingTol
		}
		// Uncapacitated DCs stay at quota 0: +Inf is not representable in
		// the /statusz JSON, and a zero dual already says "no constraint".
		if c, cerr := inst.Capacity(l); cerr == nil && !math.IsInf(c, 1) {
			row.Quota = c
		}
		a.Resource += dc.Resource
		a.Bandwidth += dc.Bandwidth
		a.Reconfig += dc.Reconfig
		a.DCs[l] = row
	}
	return a, nil
}
