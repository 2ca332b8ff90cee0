package experiments

import (
	"fmt"
	"math/rand"

	"dspp/internal/baseline"
	"dspp/internal/core"
	"dspp/internal/dispatch"
	"dspp/internal/sim"
)

// EndToEndResult is the request-level validation: the controller's plan
// for the peak hour replayed request by request.
type EndToEndResult struct {
	PeakDemand float64
	Servers    float64
	Mean, P95  float64
	SLABound   float64
	WithinSLA  float64
	Table      *Table
}

// EndToEndLatency runs the Fig. 4 controller for a day, takes the
// peak-hour allocation, and replays that hour at request granularity
// through per-server M/M/1 queues: the closed-form SLA reasoning must
// survive the discrete-event system.
func EndToEndLatency(seed int64) (*EndToEndResult, error) {
	const periods = 24
	const horizon = 5
	inst, demand, prices, err := fig4Scenario(seed, periods+horizon, 2e-5)
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(inst, horizon)
	if err != nil {
		return nil, err
	}
	run, err := sim.Run(sim.Config{
		Instance:    inst,
		Policy:      &sim.MPCPolicy{Ctrl: ctrl},
		DemandTrace: demand,
		PriceTrace:  prices,
		Periods:     periods,
		Horizon:     horizon,
	})
	if err != nil {
		return nil, err
	}
	// Find the peak-demand hour and its allocation.
	peakIdx := 0
	for i, s := range run.Steps {
		if s.Demand[0] > run.Steps[peakIdx].Demand[0] {
			peakIdx = i
		}
	}
	peak := run.Steps[peakIdx]
	rep, err := dispatch.Simulate(inst, peak.State, peak.Demand, dispatch.Config{
		Latency:  [][]float64{{0.020}},
		Mu:       250,
		SLABound: 0.25,
		Requests: 150000,
		Rng:      rand.New(rand.NewSource(seed + 99)),
	})
	if err != nil {
		return nil, err
	}
	res := &EndToEndResult{
		PeakDemand: peak.Demand[0],
		Servers:    peak.ServersByDC[0],
		Mean:       rep.Mean,
		P95:        rep.P95,
		SLABound:   0.25,
		WithinSLA:  rep.WithinSLA,
		Table: &Table{
			Title:   "Validation: peak-hour plan replayed at request level",
			Columns: []string{"peak demand", "servers", "mean lat (s)", "p95 lat (s)", "within SLA"},
		},
	}
	res.Table.AddRow(f1(res.PeakDemand), f1(res.Servers), f4(res.Mean), f4(res.P95), f4(res.WithinSLA))
	return res, nil
}

// Check verifies the controller's peak-hour plan holds up per request:
// mean within the SLA budget and a large majority of requests under it.
func (r *EndToEndResult) Check() error {
	if r.Mean > r.SLABound {
		return fmt.Errorf("request-level mean %g exceeds SLA %g: %w", r.Mean, r.SLABound, ErrShape)
	}
	if r.WithinSLA < 0.80 {
		return fmt.Errorf("only %g of requests within SLA: %w", r.WithinSLA, ErrShape)
	}
	return nil
}

// IntegerResult measures the integrality gap of rounding the continuous
// controller (the paper's §VIII future-work item).
type IntegerResult struct {
	ContinuousCost float64
	IntegerCost    float64
	GapPct         float64
	Violations     int
	Table          *Table
}

// AblationIntegerRounding runs the Fig. 4 day under the continuous MPC
// and the round-up integer MPC and reports the cost gap.
func AblationIntegerRounding(seed int64) (*IntegerResult, error) {
	const periods = 24
	const horizon = 5
	inst, demand, prices, err := fig4Scenario(seed, periods+horizon, 2e-5)
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(inst, horizon)
	if err != nil {
		return nil, err
	}
	contRun, err := sim.Run(sim.Config{
		Instance:    inst,
		Policy:      &sim.MPCPolicy{Ctrl: ctrl},
		DemandTrace: demand,
		PriceTrace:  prices,
		Periods:     periods,
		Horizon:     horizon,
	})
	if err != nil {
		return nil, err
	}
	intPolicy, err := baseline.NewIntegerMPC(inst, horizon)
	if err != nil {
		return nil, err
	}
	intRun, err := sim.Run(sim.Config{
		Instance:    inst,
		Policy:      intPolicy,
		DemandTrace: demand,
		PriceTrace:  prices,
		Periods:     periods,
		Horizon:     horizon,
	})
	if err != nil {
		return nil, err
	}
	res := &IntegerResult{
		ContinuousCost: contRun.TotalCost,
		IntegerCost:    intRun.TotalCost,
		Violations:     intRun.SLAViolations,
		Table: &Table{
			Title:   "Ablation: continuous vs integer (round-up) MPC (§VIII)",
			Columns: []string{"controller", "total cost", "SLA violations"},
		},
	}
	res.GapPct = 100 * (intRun.TotalCost - contRun.TotalCost) / contRun.TotalCost
	res.Table.AddRow("continuous", f2(contRun.TotalCost), itoa(contRun.SLAViolations))
	res.Table.AddRow("integer", f2(intRun.TotalCost), itoa(intRun.SLAViolations))
	return res, nil
}

// Check verifies the paper's argument: rounding keeps the SLA and costs
// only a few percent at tens-of-servers scale.
func (r *IntegerResult) Check() error {
	if r.Violations != 0 {
		return fmt.Errorf("integer MPC violated the SLA %d times: %w", r.Violations, ErrShape)
	}
	if r.IntegerCost < r.ContinuousCost*(1-1e-9) {
		return fmt.Errorf("integer cost %g below continuous %g: %w", r.IntegerCost, r.ContinuousCost, ErrShape)
	}
	if r.GapPct > 10 {
		return fmt.Errorf("integrality gap %.1f%% too large: %w", r.GapPct, ErrShape)
	}
	return nil
}
