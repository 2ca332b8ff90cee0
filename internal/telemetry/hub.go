package telemetry

import (
	"io"
	"sync"
)

// Metric names exported by the pipeline. Keeping them as constants makes
// DESIGN.md §8, the tests, and the instrumentation sites agree by
// construction.
const (
	MetricQPSolves            = "dspp_qp_solves_total"
	MetricQPIterations        = "dspp_qp_iterations_total"
	MetricQPWarmStarts        = "dspp_qp_warm_starts_total"
	MetricQPColdStarts        = "dspp_qp_cold_starts_total"
	MetricQPCorrectorSkips    = "dspp_qp_corrector_skips_total"
	MetricQPFactorizations    = "dspp_qp_factorizations_total"
	MetricQPFactorBumps       = "dspp_qp_factorization_bumps_total"
	MetricQPNumericalFailures = "dspp_qp_numerical_failures_total"
	MetricQPMaxIter           = "dspp_qp_maxiter_total"
	MetricQPSolveIterations   = "dspp_qp_solve_iterations"
	MetricQPDeadlineReturns   = "dspp_qp_deadline_returns_total"
	MetricQPRecenters         = "dspp_qp_recenters_total"

	// Deprecated: never registered or incremented; kept only because the
	// benchmark module reads them.
	MetricQPFactorReused = "dspp_factorizations_reused_total"
	MetricQPRankKUpdates = "dspp_rankk_updates_total"

	MetricSpans = "dspp_spans_total"

	MetricPeriods         = "dspp_periods_total"
	MetricSLAViolations   = "dspp_sla_violations_total"
	MetricSLAHeadroom     = "dspp_sla_headroom"
	MetricSLAHeadroomMean = "dspp_sla_headroom_mean"
	MetricSLAHeadroomP5   = "dspp_sla_headroom_p05"

	MetricDegradationSteps = "dspp_degradation_steps_total"
	MetricLooseSteps       = "dspp_loose_steps_total"
	MetricShedDemand       = "dspp_shed_demand_total"

	MetricBudgetOverruns     = "dspp_budget_overruns_total"
	MetricDaemonPeriods      = "dspp_daemon_periods_total"
	MetricDaemonObservations = "dspp_daemon_observations_total"
	MetricDaemonCheckpoints  = "dspp_daemon_checkpoints_total"
	MetricDaemonWatchdog     = "dspp_daemon_watchdog_restarts_total"
	MetricDaemonDemandCorr   = "dspp_daemon_demand_correction"
	MetricDaemonDelayCorr    = "dspp_daemon_delay_correction"

	// MetricDaemonCheckpointSeconds times each checkpoint save (encode
	// and write); MetricDaemonCheckpointBytes is the last record's size.
	MetricDaemonCheckpointSeconds = "dspp_daemon_checkpoint_seconds"
	MetricDaemonCheckpointBytes   = "dspp_daemon_checkpoint_bytes"

	MetricDecompShards       = "dspp_decomp_shards"
	MetricCoordinationRounds = "dspp_coordination_rounds_total"
	MetricShardSolves        = "dspp_decomp_shard_solves_total"

	MetricGameRuns            = "dspp_game_runs_total"
	MetricGameRounds          = "dspp_game_rounds_total"
	MetricGameConverged       = "dspp_game_converged_total"
	MetricGameQuotaRedivision = "dspp_game_quota_redivisions_total"
	MetricGameCostRelDelta    = "dspp_game_cost_rel_delta"
)

// Span names in the run → period → solve hierarchy.
const (
	SpanRun               = "run"
	SpanPeriod            = "period"
	SpanMPCStep           = "mpc_step"
	SpanCoordinate        = "coordinate"
	SpanShardSolve        = "shard_solve"
	SpanQPSolve           = "qp_solve"
	SpanGameRun           = "game_run"
	SpanBestResponse      = "best_response"
	SpanBestResponseRound = "best_response_round"
)

// qpIterBuckets is the fixed bucket layout for per-solve IPM iteration
// counts (roughly Fibonacci: warm solves land in the first few buckets,
// cold solves in the teens, pathologies in the tail).
var qpIterBuckets = []float64{1, 2, 3, 5, 8, 13, 21, 34, 55, 100}

// costDeltaBuckets covers the best-response per-round relative cost
// movement, which contracts geometrically toward the ε-stability cutoff.
var costDeltaBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}

// QPHooks is the pre-resolved instrumentation surface handed to the QP
// solver: plain struct fields instead of registry lookups, so the hot
// path does one nil test and a handful of atomic adds. A nil *QPHooks
// (telemetry disabled) costs a single pointer comparison.
type QPHooks struct {
	Solves            *Counter
	Iterations        *Counter
	WarmStarts        *Counter
	ColdStarts        *Counter
	CorrectorSkips    *Counter
	Factorizations    *Counter
	FactorBumps       *Counter
	NumericalFailures *Counter
	MaxIter           *Counter
	DeadlineReturns   *Counter
	Recenters         *Counter
	IterationsHist    *Histogram
	Tracer            *Tracer
}

// Hub bundles a metrics Registry with a span Tracer — the one handle the
// facade, CLIs, and every instrumented layer share. A nil *Hub disables
// telemetry end to end: every accessor returns nil, and every nil metric
// or span swallows its calls.
type Hub struct {
	reg *Registry
	tr  *Tracer

	qpOnce sync.Once
	qp     *QPHooks

	attrOnce sync.Once
	attr     *AttributionSink
}

// Option configures a Hub.
type Option func(*Hub)

// WithTraceWriter streams JSONL span events to w as spans end.
func WithTraceWriter(w io.Writer) Option {
	return func(h *Hub) {
		h.tr = NewTracer(w)
	}
}

// New returns a Hub with a fresh registry. Span counts
// (dspp_spans_total{span=...}) are recorded whether or not a trace
// writer is attached.
func New(opts ...Option) *Hub {
	h := &Hub{reg: NewRegistry()}
	for _, o := range opts {
		o(h)
	}
	if h.tr == nil {
		h.tr = NewTracer(nil)
	}
	h.tr.setCounts(h.reg.CounterVec(MetricSpans, "span"))
	return h
}

// Registry returns the hub's metrics registry (nil on a nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Tracer returns the hub's span tracer (nil on a nil hub).
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.tr
}

// QPHooks returns the solver instrumentation block, resolving every
// metric once and caching the result (nil on a nil hub).
func (h *Hub) QPHooks() *QPHooks {
	if h == nil {
		return nil
	}
	h.qpOnce.Do(func() {
		h.qp = &QPHooks{
			Solves:            h.reg.Counter(MetricQPSolves),
			Iterations:        h.reg.Counter(MetricQPIterations),
			WarmStarts:        h.reg.Counter(MetricQPWarmStarts),
			ColdStarts:        h.reg.Counter(MetricQPColdStarts),
			CorrectorSkips:    h.reg.Counter(MetricQPCorrectorSkips),
			Factorizations:    h.reg.Counter(MetricQPFactorizations),
			FactorBumps:       h.reg.Counter(MetricQPFactorBumps),
			NumericalFailures: h.reg.Counter(MetricQPNumericalFailures),
			MaxIter:           h.reg.Counter(MetricQPMaxIter),
			DeadlineReturns:   h.reg.Counter(MetricQPDeadlineReturns),
			Recenters:         h.reg.Counter(MetricQPRecenters),
			IterationsHist:    h.reg.Histogram(MetricQPSolveIterations, qpIterBuckets),
			Tracer:            h.tr,
		}
	})
	return h.qp
}

// GameCostDeltaHist returns the per-round relative cost-delta histogram
// with its canonical bucket layout (nil on a nil hub).
func (h *Hub) GameCostDeltaHist() *Histogram {
	if h == nil {
		return nil
	}
	return h.reg.Histogram(MetricGameCostRelDelta, costDeltaBuckets)
}
