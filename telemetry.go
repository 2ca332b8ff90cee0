package dspp

import (
	"io"

	"dspp/internal/core"
	"dspp/internal/profiling"
	"dspp/internal/telemetry"
)

// Telemetry types: one hub threads metrics and spans through the whole
// pipeline (controller, simulator, game). See DESIGN.md §8 for the
// metric catalogue and span hierarchy.
type (
	// Telemetry bundles a metrics registry with a span tracer; attach it
	// via SimConfig.Telemetry, BestResponseConfig.Telemetry, and
	// WithTelemetry. A nil *Telemetry disables instrumentation end to end
	// at the cost of one pointer test per site.
	Telemetry = telemetry.Hub
	// TelemetryOption configures NewTelemetry.
	TelemetryOption = telemetry.Option
	// TraceEvent is one decoded JSONL span line.
	TraceEvent = telemetry.TraceEvent
	// TraceSummary is the replayable aggregate of a JSONL trace.
	TraceSummary = telemetry.TraceSummary
	// Attribution is one period's decision-provenance record: realized
	// cost decomposed per component and DC, capacity dual prices, and
	// placement churn. The hub retains the last N in a lock-free ring.
	Attribution = telemetry.Attribution
	// DCAttribution is one data center's share of a period's attribution.
	DCAttribution = telemetry.DCAttribution
	// StatuszPage is the JSON document /statusz serves: rollup plus the
	// most recent per-period records.
	StatuszPage = telemetry.StatuszPage
)

// NewTelemetry returns a telemetry hub with a fresh metrics registry.
func NewTelemetry(opts ...TelemetryOption) *Telemetry { return telemetry.New(opts...) }

// WithTraceWriter streams JSONL span events to w as spans end (one
// object per line; replay with ReadTrace / SummarizeTrace).
func WithTraceWriter(w io.Writer) TelemetryOption { return telemetry.WithTraceWriter(w) }

// WithTelemetry attaches a hub to a controller: each Step emits an
// mpc_step span carrying the degradation outcome, and the underlying QP
// solves report iteration/factorization counters and qp_solve spans.
func WithTelemetry(h *Telemetry) ControllerOption { return core.WithTelemetry(h) }

// ServeTelemetry starts the shared ops endpoint on addr — /metrics
// (Prometheus text format), /statusz (the per-period cost-attribution
// ring as JSON), /debug/vars (expvar), /debug/pprof/* — and returns the
// actual listen address (addr may use port 0) plus a stop function. The
// endpoint serves live while runs execute.
func ServeTelemetry(addr string, h *Telemetry) (listenAddr string, stop func() error, err error) {
	return profiling.Serve(addr, h)
}

// MetricsTable renders the hub's registry as an aligned name/value
// operator table — the end-of-run summary the CLIs print.
func MetricsTable(h *Telemetry) string { return h.Registry().Table() }

// ReadTrace decodes a JSONL span stream written via WithTraceWriter.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return telemetry.ReadTrace(r) }

// SummarizeTrace aggregates a decoded trace per span name: counts, wall
// time, and numeric attribute sums — exactly the numbers the live
// registry accumulated during the run.
func SummarizeTrace(events []TraceEvent) *TraceSummary { return telemetry.Summarize(events) }

// DegradationFromTrace recomputes a run's DegradationSummary line from
// its trace (ok=false when the trace has no run span). It reproduces
// SimResult.DegradationSummary byte for byte.
func DegradationFromTrace(events []TraceEvent) (line string, ok bool) {
	return telemetry.DegradationFromTrace(events)
}

// Statusz builds the /statusz JSON document from the hub's attribution
// ring: lifetime rollup plus the newest n per-period records (n <= 0
// keeps every retained record). Nil-safe.
func Statusz(h *Telemetry, n int) *StatuszPage { return telemetry.Statusz(h, n) }
