// Package baseline provides the comparison placement policies used by the
// ablation benchmarks: a static placement computed once for the average
// load, a latency-greedy price-blind reactive policy, a myopic cost
// minimizer without lookahead, and a lazy hysteresis policy. The paper
// evaluates only its MPC controller; these baselines quantify the value of
// its two ingredients (price awareness and lookahead) as called out in
// DESIGN.md's ablation table.
//
// All policies implement the sim.Policy contract
// (Name/State/Step) structurally, so the simulation engine can drive an
// MPC controller and a baseline through the same loop.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"dspp/internal/core"
	"dspp/internal/qp"
)

// ErrBadConfig flags invalid policy construction parameters.
var ErrBadConfig = errors.New("baseline: invalid configuration")

// GreedyNearest routes each location's demand to its lowest-a (best
// latency headroom) feasible data center and allocates exactly a·D
// servers there each period, ignoring prices and reconfiguration cost.
type GreedyNearest struct {
	inst  *core.Instance
	state core.State
}

// NewGreedyNearest builds the policy.
func NewGreedyNearest(inst *core.Instance) (*GreedyNearest, error) {
	if inst == nil {
		return nil, fmt.Errorf("nil instance: %w", ErrBadConfig)
	}
	return &GreedyNearest{inst: inst, state: inst.NewState()}, nil
}

// Name implements sim.Policy.
func (g *GreedyNearest) Name() string { return "greedy-nearest" }

// State implements sim.Policy.
func (g *GreedyNearest) State() core.State { return g.state.Clone() }

// Step implements sim.Policy: it reacts to the first forecast period only.
func (g *GreedyNearest) Step(demand, prices [][]float64) (core.State, core.State, error) {
	if len(demand) == 0 {
		return nil, nil, fmt.Errorf("empty forecast: %w", ErrBadConfig)
	}
	next := g.inst.NewState()
	l := g.inst.NumDataCenters()
	v := g.inst.NumLocations()
	if len(demand[0]) != v {
		return nil, nil, fmt.Errorf("forecast width %d, want %d: %w", len(demand[0]), v, ErrBadConfig)
	}
	// Remaining capacity per DC guards the greedy fill.
	remaining := make([]float64, l)
	for li := 0; li < l; li++ {
		c, err := g.inst.Capacity(li)
		if err != nil {
			return nil, nil, err
		}
		remaining[li] = c
	}
	for vi := 0; vi < v; vi++ {
		d := demand[0][vi]
		if d == 0 {
			continue
		}
		// Visit DCs in increasing a (best SLA headroom first).
		for d > 1e-12 {
			best, bestA := -1, math.Inf(1)
			for li := 0; li < l; li++ {
				if !g.inst.Feasible(li, vi) || remaining[li] <= 1e-12 {
					continue
				}
				a, err := g.inst.SLACoefficient(li, vi)
				if err != nil {
					return nil, nil, err
				}
				if a < bestA && next[li][vi] == 0 {
					best, bestA = li, a
				}
			}
			if best < 0 {
				return nil, nil, fmt.Errorf("location %d demand %g unplaceable: %w", vi, d, core.ErrInfeasible)
			}
			// Serve as much as the remaining capacity allows.
			servable := remaining[best] / bestA
			take := d
			if take > servable {
				take = servable
			}
			next[best][vi] = bestA * take
			remaining[best] -= next[best][vi]
			d -= take
		}
	}
	applied := diffState(next, g.state)
	g.state = next
	return applied, next.Clone(), nil
}

// StaticAverage computes one placement for the average forecast demand at
// average prices and holds it for the whole run (the classic static
// placement the related work optimizes; no dynamics at all).
type StaticAverage struct {
	inst    *core.Instance
	target  core.State
	state   core.State
	placed  bool
	periods int
}

// NewStaticAverage builds the policy from the full demand and price
// traces (the static planner is clairvoyant about averages, a generous
// baseline).
func NewStaticAverage(inst *core.Instance, demand, prices [][]float64) (*StaticAverage, error) {
	if inst == nil {
		return nil, fmt.Errorf("nil instance: %w", ErrBadConfig)
	}
	if len(demand) == 0 || len(prices) == 0 {
		return nil, fmt.Errorf("empty traces: %w", ErrBadConfig)
	}
	v := inst.NumLocations()
	l := inst.NumDataCenters()
	avgD := make([]float64, v)
	for _, row := range demand {
		if len(row) != v {
			return nil, fmt.Errorf("demand width %d, want %d: %w", len(row), v, ErrBadConfig)
		}
		for i, d := range row {
			avgD[i] += d
		}
	}
	for i := range avgD {
		avgD[i] /= float64(len(demand))
	}
	avgP := make([]float64, l)
	for _, row := range prices {
		if len(row) != l {
			return nil, fmt.Errorf("price width %d, want %d: %w", len(row), l, ErrBadConfig)
		}
		for i, p := range row {
			avgP[i] += p
		}
	}
	for i := range avgP {
		avgP[i] /= float64(len(prices))
	}
	ses, err := inst.NewHorizonSession(1, qp.DefaultOptions())
	if err != nil {
		return nil, err
	}
	plan, err := ses.Solve(core.HorizonInput{
		X0:     inst.NewState(),
		Demand: [][]float64{avgD},
		Prices: [][]float64{avgP},
	})
	if err != nil {
		return nil, fmt.Errorf("static plan: %w", err)
	}
	return &StaticAverage{
		inst:   inst,
		target: plan.X[0],
		state:  inst.NewState(),
	}, nil
}

// Name implements sim.Policy.
func (s *StaticAverage) Name() string { return "static-average" }

// State implements sim.Policy.
func (s *StaticAverage) State() core.State { return s.state.Clone() }

// Step implements sim.Policy: jump to the static placement once, then
// never reconfigure.
func (s *StaticAverage) Step(demand, prices [][]float64) (core.State, core.State, error) {
	if s.placed {
		return s.inst.NewState(), s.state.Clone(), nil
	}
	applied := diffState(s.target, s.state)
	s.state = s.target.Clone()
	s.placed = true
	return applied, s.state.Clone(), nil
}

// LazyThreshold holds the current allocation while it still covers the
// forecast demand with headroom in [1, Upper]; otherwise it re-plans to
// Target× the required minimum via a one-period solve. It models the
// hysteresis autoscalers common in practice.
type LazyThreshold struct {
	inst   *core.Instance
	state  core.State
	upper  float64
	target float64
	// ses solves the one-period re-plans, built on the first one.
	ses *core.HorizonSession
}

// NewLazyThreshold builds the policy; upper > target ≥ 1.
func NewLazyThreshold(inst *core.Instance, target, upper float64) (*LazyThreshold, error) {
	if inst == nil {
		return nil, fmt.Errorf("nil instance: %w", ErrBadConfig)
	}
	if target < 1 || upper <= target {
		return nil, fmt.Errorf("target %g, upper %g: %w", target, upper, ErrBadConfig)
	}
	return &LazyThreshold{
		inst:   inst,
		state:  inst.NewState(),
		upper:  upper,
		target: target,
	}, nil
}

// Name implements sim.Policy.
func (p *LazyThreshold) Name() string { return "lazy-threshold" }

// State implements sim.Policy.
func (p *LazyThreshold) State() core.State { return p.state.Clone() }

// Step implements sim.Policy.
func (p *LazyThreshold) Step(demand, prices [][]float64) (core.State, core.State, error) {
	if len(demand) == 0 || len(prices) == 0 {
		return nil, nil, fmt.Errorf("empty forecast: %w", ErrBadConfig)
	}
	next := demand[0]
	slack, err := p.inst.DemandSlack(p.state, next)
	if err != nil {
		return nil, nil, err
	}
	ok := true
	for v, s := range slack {
		d := next[v]
		if s < 0 {
			ok = false
			break
		}
		// Too much headroom also triggers a re-plan (cost leak).
		if d > 0 && s > (p.upper-1)*d {
			ok = false
			break
		}
	}
	if ok {
		return p.inst.NewState(), p.state.Clone(), nil
	}
	// Re-plan: scale demand by the target headroom and solve one period.
	scaled := make([]float64, len(next))
	for v, d := range next {
		scaled[v] = d * p.target
	}
	if p.ses == nil {
		if p.ses, err = p.inst.NewHorizonSession(1, qp.DefaultOptions()); err != nil {
			return nil, nil, err
		}
	}
	plan, err := p.ses.Solve(core.HorizonInput{
		X0:     p.state,
		Demand: [][]float64{scaled},
		Prices: prices[:1],
	})
	if err != nil {
		return nil, nil, err
	}
	applied := plan.U[0].Clone()
	p.state = plan.X[0].Clone()
	return applied, p.state.Clone(), nil
}

// diffState returns next − prev as a control state.
func diffState(next, prev core.State) core.State {
	out := make(core.State, len(next))
	for l := range next {
		out[l] = make([]float64, len(next[l]))
		for v := range next[l] {
			out[l][v] = next[l][v] - prev[l][v]
		}
	}
	return out
}
