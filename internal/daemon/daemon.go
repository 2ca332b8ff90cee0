// Package daemon implements the dsppd placement daemon: a long-running
// control loop that ingests streaming demand observations (JSONL over
// stdin or HTTP POST), re-forecasts, and re-solves the placement QP every
// period under a wall-clock budget via the controller's deadline-bounded
// anytime ladder. Closing the loop against reality, it tracks two
// multiplicative correction factors online — realized/forecast demand and
// observed/modeled M/M/1 delay — and folds them into the next forecast.
// The daemon checkpoints after every completed period into two
// alternating slot files, each record a checksummed binary image written
// in place, so a SIGTERM or a crash at any point — including mid-solve or
// mid-write — loses at most the in-flight period and a restart resumes
// with plans bit-identical to an uninterrupted run. A watchdog
// cold-restarts the controller when a solve wedges past its limit.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"dspp/internal/core"
	"dspp/internal/monitor"
	"dspp/internal/predict"
	"dspp/internal/qp"
	"dspp/internal/queue"
	"dspp/internal/telemetry"
)

// ErrBadConfig flags an invalid daemon configuration.
var ErrBadConfig = errors.New("daemon: invalid configuration")

// overrunGrace is the scheduling slack allowed past the period budget
// before a completed period counts as an overrun (matches the simulator's
// BudgetGrace).
const overrunGrace = 5 * time.Millisecond

// minCorrSamples is how many ratio observations a correction factor needs
// before it moves off 1: with fewer, the Welford mean is noise.
const minCorrSamples = 3

// Observation is one period's realized telemetry, decoded from a JSONL
// line on stdin or a POST /observe body. Demand has one entry per
// location (req/s realized this period), Prices one per data center.
// Delay, when present, is the observed mean response time per location
// (seconds); it drives the M/M/1 delay-model correction.
type Observation struct {
	Demand []float64 `json:"demand"`
	Prices []float64 `json:"prices"`
	Delay  []float64 `json:"delay,omitempty"`
}

// Report is the daemon's per-period output line (JSONL on Config.Out).
type Report struct {
	Period  int     `json:"period"`
	Mode    string  `json:"mode"`
	Cost    float64 `json:"cost"`
	Servers float64 `json:"servers"`
	Shed    float64 `json:"shed,omitempty"`
	WallMS  float64 `json:"wall_ms"`
	Overrun bool    `json:"overrun,omitempty"`
	// DemandCorr and DelayCorr are the correction factors applied to this
	// period's forecast (1 until enough samples accumulate).
	DemandCorr float64 `json:"demand_corr"`
	DelayCorr  float64 `json:"delay_corr"`
	// Watchdog marks a period whose solve wedged past the watchdog limit
	// and was cold-restarted (the allocation is held).
	Watchdog bool `json:"watchdog,omitempty"`
	// Err reports a malformed observation that was skipped; every other
	// field is zero on such lines.
	Err string `json:"err,omitempty"`
}

// Config parameterizes a Daemon.
type Config struct {
	// Instance is the placement problem (required).
	Instance *core.Instance
	// Horizon is the MPC prediction window W ≥ 1.
	Horizon int
	// Budget is the per-period wall-clock allowance; positive values
	// enable the controller's deadline-bounded anytime ladder. Zero
	// disables budgeting (solves run to convergence).
	Budget time.Duration
	// Watchdog is the wedged-solve limit: a period whose solve exceeds it
	// is abandoned, the controller rebuilt from the last applied state.
	// Defaults to 4×Budget when budgeted; zero with no budget disables it.
	Watchdog time.Duration
	// Predictor forecasts each location's demand series (default
	// predict.Persistence).
	Predictor predict.Predictor
	// History bounds the retained demand/price history (default 96).
	History int
	// Mu is the per-server service rate for the M/M/1 delay model used by
	// the delay correction (default 150, the repo's standard setting).
	Mu float64
	// CheckpointPath, when set, is where the daemon persists its state
	// after every completed period. The checkpoint is two files, the
	// path itself and <path>.1, written alternately; on startup the newer
	// valid one is restored. A missing <path> is a fresh start, so
	// deleting it resets the daemon.
	CheckpointPath string
	// QP overrides the interior-point options (nil = defaults).
	QP *qp.Options
	// InitialState is the starting allocation (nil = zeros). A restored
	// checkpoint takes precedence.
	InitialState core.State
	// Telemetry, when non-nil, receives the daemon counters/gauges, the
	// controller spans, and backs the /metrics endpoint.
	Telemetry *telemetry.Hub
	// Addr, when set, serves POST /observe, /healthz and /metrics on this
	// address (port 0 picks a free port; see Daemon.Addr).
	Addr string
	// Out receives one Report JSON line per period (nil discards).
	Out io.Writer
}

// Daemon is the running control loop. Build with New, drive with Run.
type Daemon struct {
	cfg  Config
	inst *core.Instance
	pred predict.Predictor

	mu   sync.Mutex // guards everything below (Run loop vs HTTP handlers)
	ctrl *core.Controller
	// period indexes the next period to run (== completed periods).
	period     int
	demandHist [][]float64
	priceHist  [][]float64
	// demandCorr accumulates realized/forecast demand ratios; delayCorr
	// accumulates observed/modeled delay ratios.
	demandCorr monitor.Welford
	delayCorr  monitor.Welford
	// lastForecast is the previous period's raw (uncorrected) one-step
	// demand forecast, the denominator of the next demand ratio.
	lastForecast  []float64
	lastWall      time.Duration
	watchdogTrips int
	restored      bool

	// Checkpoint slots: ckptNewest is the slot holding the newest record
	// (-1 before the first save of a fresh start), ckptFiles the slots
	// opened so far in this Run, ckptBuf the record buffer reused across
	// periods.
	ckptNewest int
	ckptFiles  [2]*os.File
	ckptBuf    []byte

	obsCh    chan Observation
	out      *reportWriter
	httpAddr string

	mPeriods, mObs, mCkpt, mWatchdog, mOverruns *telemetry.Counter
	mModes                                      *telemetry.CounterVec
	gDemandCorr, gDelayCorr                     *telemetry.Gauge
	gCkptBytes                                  *telemetry.Gauge
	hPeriodSeconds, hBudgetUtil, hCkptSeconds   *telemetry.Histogram
	sink                                        *telemetry.AttributionSink
}

// New validates the configuration, builds the controller, and restores
// the checkpoint at Config.CheckpointPath if one exists.
func New(cfg Config) (*Daemon, error) {
	if cfg.Instance == nil {
		return nil, fmt.Errorf("nil instance: %w", ErrBadConfig)
	}
	if cfg.Horizon < 1 {
		return nil, fmt.Errorf("horizon %d: %w", cfg.Horizon, ErrBadConfig)
	}
	if cfg.Budget < 0 || cfg.Watchdog < 0 {
		return nil, fmt.Errorf("negative budget or watchdog: %w", ErrBadConfig)
	}
	if cfg.Watchdog == 0 && cfg.Budget > 0 {
		cfg.Watchdog = 4 * cfg.Budget
	}
	if cfg.History <= 0 {
		cfg.History = 96
	}
	if cfg.Mu <= 0 {
		cfg.Mu = 150
	}
	d := &Daemon{
		cfg:        cfg,
		inst:       cfg.Instance,
		pred:       cfg.Predictor,
		obsCh:      make(chan Observation, 64),
		ckptNewest: -1,
	}
	if d.pred == nil {
		d.pred = predict.Persistence{}
	}
	if cfg.Out != nil {
		d.out = &reportWriter{enc: json.NewEncoder(cfg.Out)}
	}
	if h := cfg.Telemetry; h != nil {
		reg := h.Registry()
		d.mPeriods = reg.Counter(telemetry.MetricDaemonPeriods)
		d.mObs = reg.Counter(telemetry.MetricDaemonObservations)
		d.mCkpt = reg.Counter(telemetry.MetricDaemonCheckpoints)
		d.mWatchdog = reg.Counter(telemetry.MetricDaemonWatchdog)
		d.mOverruns = reg.Counter(telemetry.MetricBudgetOverruns)
		d.mModes = reg.CounterVec(telemetry.MetricDegradationSteps, "mode")
		d.gDemandCorr = reg.Gauge(telemetry.MetricDaemonDemandCorr)
		d.gDelayCorr = reg.Gauge(telemetry.MetricDaemonDelayCorr)
		d.hPeriodSeconds = reg.Histogram(telemetry.MetricDaemonPeriodSeconds, telemetry.PeriodSecondsBuckets)
		d.hBudgetUtil = reg.Histogram(telemetry.MetricBudgetUtilization, telemetry.BudgetUtilizationBuckets)
		d.gCkptBytes = reg.Gauge(telemetry.MetricDaemonCheckpointBytes)
		d.hCkptSeconds = reg.Histogram(telemetry.MetricDaemonCheckpointSeconds, telemetry.CheckpointSecondsBuckets)
		d.sink = h.Attribution()
	}
	ctrl, err := d.newController(cfg.InitialState)
	if err != nil {
		return nil, err
	}
	d.ctrl = ctrl
	if cfg.CheckpointPath != "" {
		restored, err := d.loadCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		d.restored = restored
	}
	return d, nil
}

// newController builds a fresh controller from the given state (nil =
// zeros); the watchdog uses it to abandon a wedged solve.
func (d *Daemon) newController(state core.State) (*core.Controller, error) {
	opts := []core.ControllerOption{core.WithTelemetry(d.cfg.Telemetry)}
	if d.cfg.QP != nil {
		opts = append(opts, core.WithQPOptions(*d.cfg.QP))
	}
	if state != nil {
		opts = append(opts, core.WithInitialState(state))
	}
	if d.cfg.Budget > 0 {
		opts = append(opts, core.WithBudget(d.cfg.Budget))
	}
	return core.NewController(d.inst, d.cfg.Horizon, opts...)
}

// Restored reports whether New resumed from an existing checkpoint.
func (d *Daemon) Restored() bool { return d.restored }

// Period returns the number of completed control periods.
func (d *Daemon) Period() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.period
}

// State returns a copy of the current allocation.
func (d *Daemon) State() core.State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctrl.State()
}

// WatchdogTrips returns how many solves the watchdog has abandoned.
func (d *Daemon) WatchdogTrips() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.watchdogTrips
}

// SetStall injects artificial solver latency into every subsequent
// period, exactly like the simulator's `stall` fault — the hook tests and
// demos use to exercise the anytime ladder and the watchdog.
func (d *Daemon) SetStall(dur time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ctrl.SetStall(dur)
}

// Run drives the control loop until ctx is cancelled (SIGTERM via
// signal.NotifyContext) or, when no HTTP address is configured, until r
// is drained. r streams one JSON Observation per line; nil is allowed
// when Config.Addr serves observations instead. Cancellation is a clean
// shutdown (nil error): the last completed period's checkpoint is already
// on disk, and an in-flight solve is abandoned, not awaited. The
// checkpoint files stay open while Run runs and are closed on return.
func (d *Daemon) Run(ctx context.Context, r io.Reader) (err error) {
	defer func() {
		if cerr := d.closeCheckpoint(); err == nil {
			err = cerr
		}
	}()
	var stopHTTP func() error
	if d.cfg.Addr != "" {
		addr, stop, err := d.startHTTP()
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.httpAddr = addr
		d.mu.Unlock()
		stopHTTP = stop
		defer func() {
			if stopHTTP != nil {
				stopHTTP() //nolint:errcheck // shutdown path
			}
		}()
	}
	eof := make(chan struct{})
	if r != nil {
		go d.readObservations(ctx, r, eof)
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case obs := <-d.obsCh:
			if err := d.runPeriod(ctx, obs); err != nil {
				if ctx.Err() != nil {
					return nil // interrupted mid-period: clean shutdown
				}
				return err
			}
		case <-eof:
			eof = nil // reader drained; below decides whether to stop
		}
		// Without an HTTP ingest path, a drained reader with an empty
		// queue means no observation can ever arrive again.
		if eof == nil && d.cfg.Addr == "" && len(d.obsCh) == 0 {
			return nil
		}
	}
}

// readObservations feeds r's JSONL lines into the observation channel.
// Malformed lines become error Reports rather than stopping the stream.
func (d *Daemon) readObservations(ctx context.Context, r io.Reader, eof chan<- struct{}) {
	defer close(eof)
	dec := newLineDecoder(r)
	for {
		obs, err := dec.next()
		if err == io.EOF {
			return
		}
		if err != nil {
			d.report(Report{Err: err.Error()})
			continue
		}
		select {
		case d.obsCh <- obs:
		case <-ctx.Done():
			return
		}
	}
}

// runPeriod executes one control period for the observation: update the
// correction factors, re-forecast, solve under budget (with the watchdog
// armed), apply, report, checkpoint.
func (d *Daemon) runPeriod(ctx context.Context, obs Observation) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.mObs != nil {
		d.mObs.Inc()
	}
	if err := d.checkObservation(obs); err != nil {
		d.report(Report{Period: d.period, Err: err.Error()})
		return nil // a malformed observation is skipped, not fatal
	}
	start := time.Now()

	d.updateCorrections(obs)
	d.pushHistory(obs)
	demandCorr, delayCorr := d.corrFactors()
	demand, raw0 := d.forecastDemand(demandCorr * delayCorr)
	d.lastForecast = raw0
	prices := d.forecastPrices(obs.Prices)

	// Snapshot the pre-step allocation for the churn metric before the
	// solve replaces it (ctrl.State returns a copy).
	var prev core.State
	if d.sink != nil {
		prev = d.ctrl.State()
	}

	res, tripped, err := d.stepWatchdog(ctx, demand, prices)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	d.lastWall = wall
	d.hPeriodSeconds.Observe(wall.Seconds())
	if d.cfg.Budget > 0 {
		d.hBudgetUtil.Observe(float64(wall) / float64(d.cfg.Budget))
	}

	rep := Report{
		Period:     d.period,
		WallMS:     float64(wall) / float64(time.Millisecond),
		Overrun:    d.cfg.Budget > 0 && wall > d.cfg.Budget+overrunGrace,
		DemandCorr: demandCorr,
		DelayCorr:  delayCorr,
		Watchdog:   tripped,
	}
	if tripped {
		rep.Mode = "watchdog-restart"
		rep.Servers = sumState(d.ctrl.State())
	} else {
		deg := res.Degradation
		rep.Mode = deg.Mode.String()
		rep.Shed = deg.ShedDemand
		rep.Servers = sumState(res.NewState)
		cost, cerr := d.inst.PeriodCost(res.NewState, res.Applied, obs.Prices)
		if cerr == nil {
			rep.Cost = cost.Total()
			if d.sink != nil {
				if a, aerr := core.NewAttribution(d.inst, d.period, res.NewState, res.Applied,
					prev, obs.Prices, cost, deg, wall, d.ctrl.LastExplain()); aerr == nil {
					d.sink.Record(a)
				}
			}
		}
		if d.mModes != nil {
			d.mModes.With(deg.Mode.String()).Inc()
		}
	}
	if d.mPeriods != nil {
		d.mPeriods.Inc()
		if rep.Overrun {
			d.mOverruns.Inc()
		}
		d.gDemandCorr.Set(demandCorr)
		d.gDelayCorr.Set(delayCorr)
	}
	d.period++
	d.report(rep)
	if d.cfg.CheckpointPath != "" {
		if err := d.saveCheckpoint(d.cfg.CheckpointPath); err != nil {
			return err
		}
	}
	return nil
}

// stepWatchdog runs one controller step with the watchdog armed: a solve
// that exceeds the limit is cancelled and abandoned — the controller is
// rebuilt from the last applied state (the zombie goroutine keeps the old
// one, so a late return cannot corrupt the fresh controller) and the
// period holds its allocation.
func (d *Daemon) stepWatchdog(ctx context.Context, demand, prices [][]float64) (*core.StepResult, bool, error) {
	wd := d.cfg.Watchdog
	if wd <= 0 {
		res, err := d.ctrl.StepCtx(ctx, demand, prices)
		return res, false, err
	}
	type outcome struct {
		res *core.StepResult
		err error
	}
	stepCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 1)
	old := d.ctrl
	// Snapshot the pre-step state before the solve starts: after a trip
	// the zombie goroutine still owns `old`, so nothing may touch it.
	prev := old.State()
	go func() {
		res, err := old.StepCtx(stepCtx, demand, prices)
		ch <- outcome{res, err}
	}()
	timer := time.NewTimer(wd)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, false, o.err
	case <-timer.C:
		cancel() // best effort: a cooperative solve unwinds within one iteration
		fresh, err := d.newController(prev)
		if err != nil {
			return nil, true, err
		}
		d.ctrl = fresh
		d.watchdogTrips++
		if d.mWatchdog != nil {
			d.mWatchdog.Inc()
		}
		return nil, true, nil
	}
}

// checkObservation validates dimensions and values; the QP would reject
// them anyway, but a daemon should name the bad line, not fail a solve.
func (d *Daemon) checkObservation(obs Observation) error {
	if len(obs.Demand) != d.inst.NumLocations() {
		return fmt.Errorf("demand has %d entries, want %d", len(obs.Demand), d.inst.NumLocations())
	}
	if len(obs.Prices) != d.inst.NumDataCenters() {
		return fmt.Errorf("prices has %d entries, want %d", len(obs.Prices), d.inst.NumDataCenters())
	}
	if obs.Delay != nil && len(obs.Delay) != d.inst.NumLocations() {
		return fmt.Errorf("delay has %d entries, want %d", len(obs.Delay), d.inst.NumLocations())
	}
	for i, v := range obs.Demand {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("demand[%d] = %g", i, v)
		}
	}
	for i, v := range obs.Prices {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("prices[%d] = %g", i, v)
		}
	}
	for i, v := range obs.Delay {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("delay[%d] = %g", i, v)
		}
	}
	return nil
}

// updateCorrections folds one realized observation into the two error
// trackers. The demand ratio compares total realized demand against the
// previous period's raw one-step forecast; the delay ratio compares the
// observed per-location delay against the M/M/1 model's prediction for
// the allocation that served the period.
func (d *Daemon) updateCorrections(obs Observation) {
	if d.lastForecast != nil {
		var fc, re float64
		for i, f := range d.lastForecast {
			fc += f
			re += obs.Demand[i]
		}
		if fc > 0 {
			d.demandCorr.Add(re / fc)
		}
	}
	if obs.Delay == nil {
		return
	}
	state := d.ctrl.State()
	var ratioSum float64
	var n int
	for v, observed := range obs.Delay {
		if observed <= 0 || obs.Demand[v] <= 0 {
			continue
		}
		var servers float64
		for l := range state {
			servers += state[l][v]
		}
		modeled, err := queue.MM1Delay(obs.Demand[v], d.cfg.Mu*servers)
		if err != nil || modeled <= 0 {
			continue // unstable or empty allocation: the model has no prediction
		}
		ratioSum += observed / modeled
		n++
	}
	if n > 0 {
		d.delayCorr.Add(ratioSum / float64(n))
	}
}

// corrFactors returns the clamped multiplicative corrections (1 until
// each tracker has minCorrSamples ratios). Underestimating delay means
// each server is effectively slower than modeled, so demand is scaled up
// by the same factor — equivalent to scaling the SLA coefficient, which
// is frozen inside the cached QP structure.
func (d *Daemon) corrFactors() (demand, delay float64) {
	return clampCorr(&d.demandCorr, 0.25, 4), clampCorr(&d.delayCorr, 0.5, 2)
}

func clampCorr(w *monitor.Welford, lo, hi float64) float64 {
	if w.Count() < minCorrSamples {
		return 1
	}
	m := w.Mean()
	if math.IsNaN(m) || m <= 0 {
		return 1
	}
	return math.Min(hi, math.Max(lo, m))
}

// pushHistory appends the observation, trimming to the history bound.
func (d *Daemon) pushHistory(obs Observation) {
	d.demandHist = append(d.demandHist, append([]float64(nil), obs.Demand...))
	d.priceHist = append(d.priceHist, append([]float64(nil), obs.Prices...))
	if n := len(d.demandHist); n > d.cfg.History {
		d.demandHist = append(d.demandHist[:0], d.demandHist[n-d.cfg.History:]...)
		d.priceHist = append(d.priceHist[:0], d.priceHist[n-d.cfg.History:]...)
	}
}

// forecastDemand runs the predictor per location over the retained
// history, applies the correction factor, and also returns the raw
// (uncorrected) first-step forecast — the denominator of the next demand
// ratio. A predictor without enough history falls back to persistence.
func (d *Daemon) forecastDemand(corr float64) (fc [][]float64, raw0 []float64) {
	w, v := d.cfg.Horizon, d.inst.NumLocations()
	fc = make([][]float64, w)
	for t := range fc {
		fc[t] = make([]float64, v)
	}
	raw0 = make([]float64, v)
	series := make([]float64, 0, len(d.demandHist))
	for j := 0; j < v; j++ {
		series = series[:0]
		for _, row := range d.demandHist {
			series = append(series, row[j])
		}
		col, err := d.pred.Forecast(series, w)
		if err != nil || len(col) != w {
			last := series[len(series)-1]
			col = make([]float64, w)
			for t := range col {
				col[t] = last
			}
		}
		raw0[j] = col[0]
		for t := 0; t < w; t++ {
			f := col[t] * corr
			if f < 0 || math.IsNaN(f) {
				f = 0
			}
			fc[t][j] = f
		}
	}
	return fc, raw0
}

// forecastPrices repeats the latest observed prices across the horizon:
// the repo's predictors model demand seasonality, and persistence is the
// standard baseline for slowly varying electricity prices.
func (d *Daemon) forecastPrices(latest []float64) [][]float64 {
	w := d.cfg.Horizon
	out := make([][]float64, w)
	for t := range out {
		out[t] = append([]float64(nil), latest...)
	}
	return out
}

func sumState(s core.State) float64 {
	var total float64
	for _, row := range s {
		for _, x := range row {
			total += x
		}
	}
	return total
}
