package dspp

import (
	"context"
	"io"

	"dspp/internal/baseline"
	"dspp/internal/faults"
	"dspp/internal/predict"
	"dspp/internal/sim"
	"dspp/internal/traceio"
)

// Simulation and prediction types.
type (
	// Policy is the per-period decision interface the simulator drives;
	// MPC controllers (via NewMPCPolicy) and the baselines implement it.
	Policy = sim.Policy
	// MPCPolicy adapts a Controller to the Policy interface.
	MPCPolicy = sim.MPCPolicy
	// SimConfig describes one simulation run.
	SimConfig = sim.Config
	// SimResult is a completed run with its full time series.
	SimResult = sim.Result
	// SimStep is one recorded control period.
	SimStep = sim.StepRecord

	// FaultSchedule is a deterministic set of scheduled adverse events
	// (outages, capacity shocks, price spikes, demand surges, forecast
	// noise) the engine injects per period; see SimConfig.Faults.
	FaultSchedule = faults.Schedule
	// Fault is one scheduled event of a FaultSchedule.
	Fault = faults.Fault
	// FaultKind enumerates the fault types.
	FaultKind = faults.Kind

	// Predictor forecasts a series' future from its history.
	Predictor = predict.Predictor
	// PerfectPredictor is an oracle over a known series.
	PerfectPredictor = predict.Perfect
	// PersistencePredictor repeats the last observation.
	PersistencePredictor = predict.Persistence
	// SeasonalNaivePredictor repeats the value one season earlier.
	SeasonalNaivePredictor = predict.SeasonalNaive
	// ARPredictor is an OLS-fit autoregressive model.
	ARPredictor = predict.AR
	// MovingAveragePredictor predicts the recent mean.
	MovingAveragePredictor = predict.MovingAverage
	// HoltWintersPredictor is additive triple exponential smoothing
	// (level + trend + season), the natural fit for diurnal traces.
	HoltWintersPredictor = predict.HoltWinters
)

// Fault kinds for building FaultSchedules programmatically.
const (
	FaultDCOutage      = faults.DCOutage
	FaultCapacityShock = faults.CapacityShock
	FaultPriceSpike    = faults.PriceSpike
	FaultDemandSurge   = faults.DemandSurge
	FaultForecastNoise = faults.ForecastNoise
)

// Simulate executes a run of the discrete-time engine (Fig. 2's
// architecture): forecasts feed the policy, realized traces are billed
// and checked against the SLA, and the full series is recorded.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// SimulateCtx is Simulate with cooperative cancellation: the context is
// checked every period and threaded into the policy's QP solves.
func SimulateCtx(ctx context.Context, cfg SimConfig) (*SimResult, error) {
	return sim.RunCtx(ctx, cfg)
}

// ParseFault parses one CLI fault spec, e.g. "outage:dc=1,start=10,end=20"
// or "surge:loc=0,start=5,end=9,factor=2".
func ParseFault(spec string) (Fault, error) { return faults.ParseFault(spec) }

// ParseFaultSchedule parses a list of fault specs into a schedule whose
// stochastic faults (forecast noise) draw deterministically from seed.
func ParseFaultSchedule(specs []string, seed int64) (*FaultSchedule, error) {
	return faults.ParseSchedule(specs, seed)
}

// NewMPCPolicy wraps an MPC controller for Simulate.
func NewMPCPolicy(ctrl *Controller) *MPCPolicy { return &sim.MPCPolicy{Ctrl: ctrl} }

// Baseline policies (ablation comparators; see internal/baseline).

// NewGreedyNearestPolicy routes demand to the lowest-latency feasible DC,
// ignoring prices and reconfiguration cost.
func NewGreedyNearestPolicy(inst *Instance) (Policy, error) {
	return baseline.NewGreedyNearest(inst)
}

// NewStaticAveragePolicy computes one placement for the average demand
// and holds it forever.
func NewStaticAveragePolicy(inst *Instance, demand, prices [][]float64) (Policy, error) {
	return baseline.NewStaticAverage(inst, demand, prices)
}

// NewMyopicPolicy solves a single-period DSPP each step: MPC with W=1,
// price aware but with no lookahead.
func NewMyopicPolicy(inst *Instance) (Policy, error) {
	ctrl, err := NewController(inst, 1)
	if err != nil {
		return nil, err
	}
	return &MPCPolicy{Ctrl: ctrl, Label: "myopic"}, nil
}

// NewLazyThresholdPolicy holds the allocation inside a hysteresis band
// and re-plans to target×minimum when the band is left.
func NewLazyThresholdPolicy(inst *Instance, target, upper float64) (Policy, error) {
	return baseline.NewLazyThreshold(inst, target, upper)
}

// WriteTraceCSV writes a [period][series] trace as CSV with named columns.
func WriteTraceCSV(w io.Writer, names []string, trace [][]float64) error {
	return traceio.WriteTrace(w, names, trace)
}

// ReadTraceCSV parses a trace CSV written by WriteTraceCSV (or hand-made
// in the same shape), returning column names and values.
func ReadTraceCSV(r io.Reader) ([]string, [][]float64, error) {
	return traceio.ReadTrace(r)
}

// WriteSimResultCSV exports a simulation run as CSV: per-period demand,
// per-DC allocation, cost components and SLA outcome.
func WriteSimResultCSV(w io.Writer, res *SimResult, dcNames []string) error {
	return traceio.WriteSimResult(w, res, dcNames)
}
