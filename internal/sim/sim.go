// Package sim is the discrete-time simulation engine that wires together
// the paper's system architecture (Fig. 2): per-location demand arrives at
// request routers, the monitoring module records realized demand and
// prices, the analysis-and-prediction module forecasts the next W periods,
// and the resource controller (an MPC controller or a baseline policy)
// adjusts the per-DC allocation. The engine records the full time series —
// allocations, costs, SLA outcomes — that the experiment harness turns
// into the paper's figures.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dspp/internal/core"
	"dspp/internal/faults"
	"dspp/internal/monitor"
	"dspp/internal/predict"
	"dspp/internal/telemetry"
)

// Sentinel errors.
var (
	// ErrBadConfig flags an invalid simulation configuration.
	ErrBadConfig = errors.New("sim: invalid configuration")
)

// Policy is the control interface the engine drives each period. The MPC
// controller (via MPCPolicy) and every baseline implement it.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// State returns the current allocation.
	State() core.State
	// Step consumes demand and price forecasts for the next W periods
	// (index 0 = next period) and returns the applied control and the
	// new allocation.
	Step(demandForecast, priceForecast [][]float64) (applied core.State, newState core.State, err error)
}

// CtxPolicy is optionally implemented by policies that support cooperative
// cancellation; the engine prefers StepCtx over Step when it is available.
type CtxPolicy interface {
	Policy
	StepCtx(ctx context.Context, demandForecast, priceForecast [][]float64) (applied core.State, newState core.State, err error)
}

// DegradationReporter is optionally implemented by policies that can say
// how their last step was produced (clean solve vs a degradation-ladder
// rung). The engine records the report on each StepRecord.
type DegradationReporter interface {
	LastDegradation() core.Degradation
}

// Staller is optionally implemented by policies that can inject artificial
// solver latency. When the fault schedule carries stall faults, the engine
// calls SetStall before every step with that period's scheduled delay
// (zero when none is active), so the stall consumes the policy's own
// per-step budget exactly like a slow solve would.
type Staller interface {
	SetStall(d time.Duration)
}

// MPCPolicy adapts core.Controller to the Policy interface.
type MPCPolicy struct {
	Ctrl *core.Controller
	// Label overrides the default name (useful when sweeping horizons).
	Label string

	lastDeg core.Degradation
}

// Name implements Policy.
func (m *MPCPolicy) Name() string {
	if m.Label != "" {
		return m.Label
	}
	return fmt.Sprintf("mpc-w%d", m.Ctrl.Horizon())
}

// State implements Policy.
func (m *MPCPolicy) State() core.State { return m.Ctrl.State() }

// Step implements Policy.
func (m *MPCPolicy) Step(demand, prices [][]float64) (core.State, core.State, error) {
	return m.StepCtx(context.Background(), demand, prices)
}

// StepCtx implements CtxPolicy.
func (m *MPCPolicy) StepCtx(ctx context.Context, demand, prices [][]float64) (core.State, core.State, error) {
	res, err := m.Ctrl.StepCtx(ctx, demand, prices)
	if err != nil {
		return nil, nil, err
	}
	m.lastDeg = res.Degradation
	return res.Applied, res.NewState, nil
}

// LastDegradation implements DegradationReporter.
func (m *MPCPolicy) LastDegradation() core.Degradation { return m.lastDeg }

// SetStall implements Staller by forwarding to the controller.
func (m *MPCPolicy) SetStall(d time.Duration) { m.Ctrl.SetStall(d) }

// LastExplain implements core.Explainer by forwarding to the controller,
// so attribution records carry the dual-price surface of the plan that
// produced each period.
func (m *MPCPolicy) LastExplain() core.Explain { return m.Ctrl.LastExplain() }

// Config describes one simulation run.
type Config struct {
	// Instance is the DSPP instance being controlled.
	Instance *core.Instance
	// Policy makes the per-period decision.
	Policy Policy
	// DemandTrace[k][v] is the realized demand; it must cover at least
	// Periods+1 periods (period 0 is history; control starts shaping
	// period 1).
	DemandTrace [][]float64
	// PriceTrace[k][l] is the realized price; same length rule.
	PriceTrace [][]float64
	// Periods is the number of control periods to execute.
	Periods int
	// Horizon is the forecast window passed to the policy each period.
	Horizon int
	// DemandPredictor forecasts demand per location from realized
	// history; nil means perfect foresight (forecasts read the trace).
	DemandPredictor predict.Predictor
	// PricePredictor is the price analogue of DemandPredictor.
	PricePredictor predict.Predictor
	// SLAJudge, when set, is the instance whose SLA coefficients define
	// a violation. It lets a controller plan with a §IV-B capacity
	// cushion (reservation ratio baked into its own coefficients) while
	// violations are still counted against the true, uncushioned SLA.
	// Nil means judge with Instance itself. Dimensions must match.
	SLAJudge *core.Instance
	// Faults, when non-nil, is the fault schedule applied to the run:
	// demand surges and price spikes rewrite the traces (so both realized
	// values and forecasts see them, like real-world shocks would), DC
	// outages and capacity shocks retarget the instance's capacities per
	// period (restored when the run ends), and forecast noise corrupts
	// the demand forecast handed to the policy without touching the
	// realized trace. Fault windows are in the 1-based period index that
	// StepRecord.Period reports.
	Faults *faults.Schedule
	// Budget, when positive, is the wall-clock allowance each control
	// period is expected to honor. The policy enforces its own deadline
	// (e.g. core.WithBudget); the engine independently times every step
	// end to end — stall included — and counts periods slower than
	// Budget+core.BudgetGrace as overruns, so the report catches a
	// ladder that blows its budget even when the solver believes it met
	// the deadline.
	Budget time.Duration
	// Telemetry, when non-nil, receives the run's metrics and spans: a
	// run span wrapping one period span per control step (parenting the
	// controller's mpc_step/qp_solve spans via the context), period/SLA/
	// degradation counters, and SLA-headroom gauges fed by the monitor
	// estimators. Nil disables telemetry; the run's own degradation
	// accounting still flows through (unregistered) telemetry counters,
	// so Result numbers are identical either way.
	Telemetry *telemetry.Hub
}

// StepRecord captures one executed control period.
type StepRecord struct {
	// Period is the period index being shaped (1-based: the state after
	// control k serves period k+1).
	Period int
	// Demand and Prices are the realized values of that period.
	Demand []float64
	Prices []float64
	// State is the allocation serving the period; Control is the change
	// applied to reach it.
	State   core.State
	Control core.State
	// ServersByDC aggregates State per data center.
	ServersByDC []float64
	// Cost is the realized cost of the period.
	Cost core.CostBreakdown
	// SLAMet reports whether the realized demand fit the SLA envelope.
	SLAMet bool
	// DemandForecast[0] is what the policy believed the period's demand
	// would be (for forecast-error analysis).
	DemandForecast []float64
	// Degradation reports how the policy produced this step (always the
	// zero value for policies that don't implement DegradationReporter).
	Degradation core.Degradation
	// ActiveFaults lists the scheduled faults in effect this period.
	ActiveFaults []faults.Fault
	// Wall is the policy's wall-clock time for the step (the quantity
	// compared against Config.Budget when counting overruns).
	Wall time.Duration
}

// Result is a completed run.
type Result struct {
	PolicyName    string
	Steps         []StepRecord
	TotalCost     float64
	TotalResource float64
	TotalReconfig float64
	SLAViolations int
	// ForecastAccuracy scores the demand predictor per location over the
	// run (one-step-ahead forecast vs realized demand): the monitoring
	// signal the analysis module would use to pick horizons (Figs. 9/10).
	ForecastAccuracy []ForecastAccuracy
	// DegradedSteps counts the periods whose plan came from a degradation
	// rung; ShedDemand is the total demand shed
	// across the run by soft-mode steps. Both are read back from the
	// telemetry counters at the end of the run (as per-run deltas, so a
	// shared hub across runs stays cumulative while each Result stays
	// self-contained), as are the per-rung counts below.
	DegradedSteps int
	ShedDemand    float64
	// AnytimeSteps/SoftSteps/HoldSteps split DegradedSteps by ladder
	// rung — the dspp_degradation_steps_total{mode=...} deltas.
	// AnytimeSteps counts periods served by a deadline-truncated best
	// iterate.
	AnytimeSteps int
	SoftSteps    int
	HoldSteps    int
	// LooseSteps counts the periods whose plan was accepted at the
	// solver's loosened tolerance after the iteration cap (the
	// dspp_loose_steps_total delta); such steps may also be degraded.
	LooseSteps int
	// BudgetOverruns counts periods whose end-to-end wall time exceeded
	// Config.Budget+core.BudgetGrace (0 when no budget was configured);
	// MaxStepWall is the slowest period observed.
	BudgetOverruns int
	MaxStepWall    time.Duration
}

// DegradationSummary renders a one-line robustness report for the run.
// It is a pure view over the telemetry-counter deltas captured at the
// end of the run; replaying the run's JSONL trace through
// telemetry.DegradationFromTrace reproduces it byte for byte.
func (r *Result) DegradationSummary() string {
	return telemetry.FormatDegradationSummary(r.PolicyName, len(r.Steps),
		r.DegradedSteps, r.AnytimeSteps, r.SoftSteps, r.HoldSteps, r.LooseSteps, r.ShedDemand)
}

// ForecastAccuracy is the per-location forecast scorecard.
type ForecastAccuracy struct {
	Location            int
	Bias                float64 // mean (forecast − realized)
	MAE                 float64
	RMSE                float64
	P95AbsError         float64
	UnderpredictionRate float64
}

// MaxControl returns the largest per-period total |u| across the run, the
// smoothness metric of Fig. 6.
func (r *Result) MaxControl() float64 {
	var m float64
	for _, s := range r.Steps {
		var step float64
		for _, row := range s.Control {
			for _, u := range row {
				if u < 0 {
					step -= u
				} else {
					step += u
				}
			}
		}
		if step > m {
			m = step
		}
	}
	return m
}

// ServersSeries returns the per-period total server count (Fig. 4's
// y-axis).
func (r *Result) ServersSeries() []float64 {
	out := make([]float64, len(r.Steps))
	for i, s := range r.Steps {
		var t float64
		for _, x := range s.ServersByDC {
			t += x
		}
		out[i] = t
	}
	return out
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cooperative cancellation: the context is checked at
// the top of every control period and passed through to the policy when it
// implements CtxPolicy, so a deadline bounds the slowest solve rather than
// only the gaps between periods.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	inst := cfg.Instance
	judge := cfg.SLAJudge
	if judge == nil {
		judge = inst
	}
	v := inst.NumLocations()
	l := inst.NumDataCenters()

	// Fault injection: surges and spikes rewrite the traces up front
	// (period index == trace row index), capacity faults retarget the
	// instance per period and are undone before returning.
	sched := cfg.Faults
	demandTrace, priceTrace := cfg.DemandTrace, cfg.PriceTrace
	var baseCaps, liveCaps []float64
	if !sched.Empty() {
		demandTrace = faultTrace(demandTrace, sched.Demand)
		priceTrace = faultTrace(priceTrace, sched.Prices)
		baseCaps = inst.Capacities()
		liveCaps = baseCaps
		defer func() {
			if &liveCaps[0] != &baseCaps[0] {
				inst.SetCapacities(baseCaps)
			}
		}()
	}

	ctxPolicy, _ := cfg.Policy.(CtxPolicy)
	degrader, _ := cfg.Policy.(DegradationReporter)
	staller, _ := cfg.Policy.(Staller)
	explainer, _ := cfg.Policy.(core.Explainer)
	res := &Result{PolicyName: cfg.Policy.Name()}

	// Degradation/SLA accounting runs through telemetry counters whether
	// or not a hub is attached: with one, the counters are the hub's
	// registered metrics (live on /metrics, cumulative across runs) and
	// the Result captures this run's deltas; without one they are
	// throwaway standalone counters starting at zero. Either way there is
	// exactly one accounting path.
	hub := cfg.Telemetry
	var mPeriods, mViol, mShed, mOver, mLoose *telemetry.Counter
	var mDeg *telemetry.CounterVec
	if reg := hub.Registry(); reg != nil {
		mPeriods = reg.Counter(telemetry.MetricPeriods)
		mViol = reg.Counter(telemetry.MetricSLAViolations)
		mShed = reg.Counter(telemetry.MetricShedDemand)
		mOver = reg.Counter(telemetry.MetricBudgetOverruns)
		mLoose = reg.Counter(telemetry.MetricLooseSteps)
		mDeg = reg.CounterVec(telemetry.MetricDegradationSteps, "mode")
	} else {
		mPeriods = telemetry.NewCounter()
		mViol = telemetry.NewCounter()
		mShed = telemetry.NewCounter()
		mOver = telemetry.NewCounter()
		mLoose = telemetry.NewCounter()
		mDeg = telemetry.NewCounterVec(telemetry.MetricDegradationSteps, "mode")
	}
	modeLabels := []string{
		core.DegradeAnytime.String(), core.DegradeSoft.String(), core.DegradeHold.String(),
	}
	baseViol := mViol.Value()
	baseShed := mShed.Value()
	baseOver := mOver.Value()
	baseLoose := mLoose.Value()
	baseMode := make(map[string]float64, len(modeLabels))
	for _, m := range modeLabels {
		baseMode[m] = mDeg.With(m).Value()
	}

	// SLA headroom per period (the min demand slack under the judging
	// SLA) feeds the monitor estimators; gauges expose the latest value,
	// the running mean, and the streaming 5th percentile.
	var headroomGauge, headroomMean, headroomP5 *telemetry.Gauge
	var headroomQ *monitor.P2Quantile
	var headroomW monitor.Welford
	if reg := hub.Registry(); reg != nil {
		headroomGauge = reg.Gauge(telemetry.MetricSLAHeadroom)
		headroomMean = reg.Gauge(telemetry.MetricSLAHeadroomMean)
		headroomP5 = reg.Gauge(telemetry.MetricSLAHeadroomP5)
		var err error
		if headroomQ, err = monitor.NewP2Quantile(0.05); err != nil {
			return nil, err
		}
	}

	// The provenance sink decomposes each period's realized cost into the
	// ring buffer behind /statusz and the component counters. prevState
	// anchors the churn metric: how much served demand moved DCs between
	// consecutive periods.
	sink := hub.Attribution()
	prevState := cfg.Policy.State().Clone()

	tr := hub.Tracer()
	runSpan := tr.Start(telemetry.SpanRun, telemetry.SpanIDFromContext(ctx),
		telemetry.Str("policy", res.PolicyName))
	ctx = telemetry.ContextWithSpan(ctx, runSpan)
	defer func() {
		runSpan.SetAttr(telemetry.Num("steps", float64(len(res.Steps))))
		runSpan.End()
	}()

	trackers := make([]*monitor.ForecastTracker, v)
	for i := range trackers {
		tr, err := monitor.NewForecastTracker()
		if err != nil {
			return nil, err
		}
		trackers[i] = tr
	}

	for k := 0; k < cfg.Periods; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("period %d: %w", k, err)
		}
		pSpan := tr.Start(telemetry.SpanPeriod, runSpan.ID(),
			telemetry.Num("period", float64(k+1)))
		stepCtx := telemetry.ContextWithSpan(ctx, pSpan)
		// perr closes the period span with an error outcome before the
		// run aborts, so a failed period still appears in the trace.
		perr := func(err error) error {
			pSpan.SetAttr(telemetry.Str("outcome", "error"))
			pSpan.End()
			return err
		}
		if baseCaps != nil {
			caps := sched.Capacities(k+1, baseCaps)
			if &caps[0] != &liveCaps[0] {
				if err := inst.SetCapacities(caps); err != nil {
					return nil, perr(fmt.Errorf("period %d fault capacities: %w", k, err))
				}
				liveCaps = caps
			}
		}
		demandFC, err := forecastMatrix(demandTrace, k, cfg.Horizon, v, cfg.DemandPredictor)
		if err != nil {
			return nil, perr(fmt.Errorf("period %d demand forecast: %w", k, err))
		}
		priceFC, err := forecastMatrix(priceTrace, k, cfg.Horizon, l, cfg.PricePredictor)
		if err != nil {
			return nil, perr(fmt.Errorf("period %d price forecast: %w", k, err))
		}
		sched.PerturbForecast(k+1, demandFC)
		if staller != nil {
			staller.SetStall(sched.StallDelay(k + 1))
		}
		var applied, state core.State
		stepStart := time.Now()
		if ctxPolicy != nil {
			applied, state, err = ctxPolicy.StepCtx(stepCtx, demandFC, priceFC)
		} else {
			applied, state, err = cfg.Policy.Step(demandFC, priceFC)
		}
		stepWall := time.Since(stepStart)
		if err != nil {
			return nil, perr(fmt.Errorf("period %d policy step: %w", k, err))
		}
		if stepWall > res.MaxStepWall {
			res.MaxStepWall = stepWall
		}
		if cfg.Budget > 0 && stepWall > cfg.Budget+core.BudgetGrace {
			mOver.Inc()
		}
		realD := demandTrace[k+1]
		realP := priceTrace[k+1]
		cost, err := inst.PeriodCost(state, applied, realP)
		if err != nil {
			return nil, perr(fmt.Errorf("period %d cost: %w", k, err))
		}
		slack, err := judge.DemandSlack(state, realD)
		if err != nil {
			return nil, perr(fmt.Errorf("period %d sla: %w", k, err))
		}
		// The full scan (no early break) yields the period's SLA headroom
		// — the minimum slack — alongside the violation verdict.
		minSlack := math.Inf(1)
		for _, s := range slack {
			if s < minSlack {
				minSlack = s
			}
		}
		slaOK := !(minSlack < -1e-6)
		if !slaOK {
			mViol.Inc()
		}
		if headroomQ != nil && !math.IsInf(minSlack, 1) {
			headroomQ.Add(minSlack)
			headroomW.Add(minSlack)
			headroomGauge.Set(minSlack)
			headroomMean.Set(headroomW.Mean())
			headroomP5.Set(headroomQ.Value())
		}
		for vi := 0; vi < v; vi++ {
			trackers[vi].Observe(demandFC[0][vi], realD[vi])
		}
		res.TotalResource += cost.Resource
		res.TotalReconfig += cost.Reconfig
		res.TotalCost += cost.Total()
		rec := StepRecord{
			Period:         k + 1,
			Demand:         append([]float64(nil), realD...),
			Prices:         append([]float64(nil), realP...),
			State:          state.Clone(),
			Control:        applied.Clone(),
			ServersByDC:    state.TotalByDC(),
			Cost:           cost,
			SLAMet:         slaOK,
			DemandForecast: append([]float64(nil), demandFC[0]...),
			ActiveFaults:   sched.Active(k + 1),
			Wall:           stepWall,
		}
		if degrader != nil {
			rec.Degradation = degrader.LastDegradation()
		}
		if rec.Degradation.Degraded() {
			mDeg.With(rec.Degradation.Mode.String()).Inc()
			mShed.Add(rec.Degradation.ShedDemand)
		}
		loose := 0.0
		if rec.Degradation.Loose {
			loose = 1
			mLoose.Inc()
		}
		if sink != nil {
			var explain core.Explain
			if explainer != nil {
				explain = explainer.LastExplain()
			}
			a, aerr := core.NewAttribution(inst, k+1, state, applied, prevState, realP,
				cost, rec.Degradation, stepWall, explain)
			if aerr != nil {
				return nil, perr(fmt.Errorf("period %d attribution: %w", k, aerr))
			}
			sink.Record(a)
		}
		prevState = rec.State
		mPeriods.Inc()
		pSpan.SetAttr(
			telemetry.Str("mode", rec.Degradation.Mode.String()),
			telemetry.Num("shed", rec.Degradation.ShedDemand),
			telemetry.Num("loose", loose),
			telemetry.Num("min_slack", minSlack),
			telemetry.Num("cost", cost.Total()),
		)
		pSpan.End()
		res.Steps = append(res.Steps, rec)
	}
	// Fold this run's counter deltas back into the Result: the summary
	// numbers are a view over telemetry, not a second ledger.
	res.ShedDemand = mShed.Value() - baseShed
	res.BudgetOverruns = int(mOver.Value() - baseOver)
	res.LooseSteps = int(mLoose.Value() - baseLoose)
	res.AnytimeSteps = int(mDeg.With(core.DegradeAnytime.String()).Value() - baseMode[core.DegradeAnytime.String()])
	res.SoftSteps = int(mDeg.With(core.DegradeSoft.String()).Value() - baseMode[core.DegradeSoft.String()])
	res.HoldSteps = int(mDeg.With(core.DegradeHold.String()).Value() - baseMode[core.DegradeHold.String()])
	res.DegradedSteps = res.AnytimeSteps + res.SoftSteps + res.HoldSteps
	res.SLAViolations = int(mViol.Value() - baseViol)
	for vi, tr := range trackers {
		res.ForecastAccuracy = append(res.ForecastAccuracy, ForecastAccuracy{
			Location:            vi,
			Bias:                tr.Bias(),
			MAE:                 tr.MAE(),
			RMSE:                tr.RMSE(),
			P95AbsError:         tr.P95AbsError(),
			UnderpredictionRate: tr.UnderpredictionRate(),
		})
	}
	return res, nil
}

func validate(cfg *Config) error {
	if cfg.Instance == nil {
		return fmt.Errorf("nil instance: %w", ErrBadConfig)
	}
	if cfg.Policy == nil {
		return fmt.Errorf("nil policy: %w", ErrBadConfig)
	}
	if cfg.Periods < 1 {
		return fmt.Errorf("periods %d: %w", cfg.Periods, ErrBadConfig)
	}
	if cfg.Horizon < 1 {
		return fmt.Errorf("horizon %d: %w", cfg.Horizon, ErrBadConfig)
	}
	if len(cfg.DemandTrace) < cfg.Periods+1 {
		return fmt.Errorf("demand trace %d < %d: %w", len(cfg.DemandTrace), cfg.Periods+1, ErrBadConfig)
	}
	if len(cfg.PriceTrace) < cfg.Periods+1 {
		return fmt.Errorf("price trace %d < %d: %w", len(cfg.PriceTrace), cfg.Periods+1, ErrBadConfig)
	}
	v := cfg.Instance.NumLocations()
	for k, row := range cfg.DemandTrace {
		if len(row) != v {
			return fmt.Errorf("demand[%d] width %d, want %d: %w", k, len(row), v, ErrBadConfig)
		}
	}
	l := cfg.Instance.NumDataCenters()
	for k, row := range cfg.PriceTrace {
		if len(row) != l {
			return fmt.Errorf("prices[%d] width %d, want %d: %w", k, len(row), l, ErrBadConfig)
		}
	}
	if cfg.SLAJudge != nil &&
		(cfg.SLAJudge.NumDataCenters() != l || cfg.SLAJudge.NumLocations() != v) {
		return fmt.Errorf("SLA judge is %dx%d, instance %dx%d: %w",
			cfg.SLAJudge.NumDataCenters(), cfg.SLAJudge.NumLocations(), l, v, ErrBadConfig)
	}
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(l, v); err != nil {
			return fmt.Errorf("fault schedule: %w", err)
		}
		// Capacity faults work by rewriting the capacity vector, which
		// requires the target to be capacitated to begin with (the QP
		// structure bakes in which DCs have capacity rows).
		for i, f := range cfg.Faults.Faults {
			if f.Kind != faults.DCOutage && f.Kind != faults.CapacityShock {
				continue
			}
			if c, err := cfg.Instance.Capacity(f.Target); err == nil && math.IsInf(c, 1) {
				return fmt.Errorf("fault %d (%v) targets uncapacitated dc %d: %w", i, f.Kind, f.Target, ErrBadConfig)
			}
		}
	}
	return nil
}

// faultTrace maps a per-period transform over a trace, sharing rows the
// transform leaves untouched and copying only the faulted ones.
func faultTrace(trace [][]float64, f func(k int, row []float64) []float64) [][]float64 {
	var out [][]float64
	for k, row := range trace {
		if faulted := f(k, row); &faulted[0] != &row[0] {
			if out == nil {
				out = append(out, trace[:k]...)
			}
			out = append(out, faulted)
		} else if out != nil {
			out = append(out, row)
		}
	}
	if out == nil {
		return trace
	}
	return out
}

// forecastMatrix produces the W×width forecast for periods k+1..k+W.
// With a nil predictor it reads the true trace (clamping at the end);
// otherwise it forecasts each column from the realized history [0..k].
func forecastMatrix(trace [][]float64, k, w, width int, p predict.Predictor) ([][]float64, error) {
	out := make([][]float64, w)
	if p == nil {
		for t := 0; t < w; t++ {
			idx := k + 1 + t
			if idx >= len(trace) {
				idx = len(trace) - 1
			}
			out[t] = append([]float64(nil), trace[idx]...)
		}
		return out, nil
	}
	for t := 0; t < w; t++ {
		out[t] = make([]float64, width)
	}
	history := make([]float64, k+1)
	for col := 0; col < width; col++ {
		for i := 0; i <= k; i++ {
			history[i] = trace[i][col]
		}
		fc, err := p.Forecast(history, w)
		if err != nil {
			if errors.Is(err, predict.ErrInsufficientHistory) {
				// Cold start: fall back to persistence of the last value.
				for t := 0; t < w; t++ {
					out[t][col] = history[k]
				}
				continue
			}
			return nil, err
		}
		for t := 0; t < w; t++ {
			out[t][col] = fc[t]
		}
	}
	return out, nil
}
