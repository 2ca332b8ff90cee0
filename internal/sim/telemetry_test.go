package sim

import (
	"bytes"
	"context"
	"testing"

	"dspp/internal/core"
	"dspp/internal/faults"
	"dspp/internal/telemetry"
)

// outageSchedule is the deterministic degradation-producing scenario:
// the single DC goes down for periods 5–7, forcing soft-mode shedding.
func outageSchedule() *faults.Schedule {
	return &faults.Schedule{Faults: []faults.Fault{
		{Kind: faults.DCOutage, Target: 0, Start: 5, End: 7},
	}}
}

// telemetryRun executes the outage scenario with the given hub wired
// through both the sim engine and the MPC controller (nil hub = both
// disabled).
func telemetryRun(t *testing.T, hub *telemetry.Hub) *Result {
	t.Helper()
	inst := cappedInstance(t, 10)
	var opts []core.ControllerOption
	if hub != nil {
		opts = append(opts, core.WithTelemetry(hub))
	}
	ctrl, err := core.NewController(inst, 3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultedConfig(t, inst, outageSchedule())
	cfg.Policy = &MPCPolicy{Ctrl: ctrl}
	cfg.Telemetry = hub
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTelemetryRoundTrip is the end-to-end contract of the observability
// pipeline: a traced run's JSONL stream, replayed through the trace
// summarizer, must reproduce the in-memory registry and the Result's
// degradation summary exactly — and attaching telemetry must not change
// the Result at all.
func TestTelemetryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hub := telemetry.New(telemetry.WithTraceWriter(&buf))
	res := telemetryRun(t, hub)
	plain := telemetryRun(t, nil)

	// (a) Telemetry is an observer: the Result is bit-identical to the
	// untraced run.
	if res.DegradedSteps != plain.DegradedSteps ||
		res.AnytimeSteps != plain.AnytimeSteps ||
		res.SoftSteps != plain.SoftSteps ||
		res.HoldSteps != plain.HoldSteps ||
		res.ShedDemand != plain.ShedDemand ||
		res.SLAViolations != plain.SLAViolations ||
		res.TotalCost != plain.TotalCost {
		t.Errorf("telemetry perturbed the run:\n  traced: %+v\n  plain:  %+v", res, plain)
	}
	if got, want := res.DegradationSummary(), plain.DegradationSummary(); got != want {
		t.Errorf("summary diverged: %q vs %q", got, want)
	}
	// The scenario must actually exercise the ladder, or the test is
	// vacuous.
	if res.SoftSteps == 0 || res.ShedDemand <= 0 {
		t.Fatalf("outage produced no soft degradation: %+v", res)
	}

	// (b) The JSONL stream replays to the same numbers as the live run.
	events, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	line, ok := telemetry.DegradationFromTrace(events)
	if !ok {
		t.Fatal("trace has no run span")
	}
	if want := res.DegradationSummary(); line != want {
		t.Errorf("trace replay:\n  got  %q\n  want %q", line, want)
	}

	// (c) Trace aggregates agree with the registry, which agrees with the
	// Result.
	sum := telemetry.Summarize(events)
	snap := hub.Registry().Snapshot()
	if got := sum.Count(telemetry.SpanRun); got != 1 {
		t.Errorf("run spans = %d, want 1", got)
	}
	periods := len(res.Steps)
	if got := sum.Count(telemetry.SpanPeriod); got != periods {
		t.Errorf("period spans = %d, want %d", got, periods)
	}
	if got := snap[telemetry.MetricPeriods]; got != float64(periods) {
		t.Errorf("%s = %g, want %d", telemetry.MetricPeriods, got, periods)
	}
	if got := snap[telemetry.MetricDegradationSteps+`{mode="soft"}`]; got != float64(res.SoftSteps) {
		t.Errorf("soft counter = %g, want %d", got, res.SoftSteps)
	}
	if got := snap[telemetry.MetricShedDemand]; got != res.ShedDemand {
		t.Errorf("shed counter = %g, want %g", got, res.ShedDemand)
	}
	if got := sum.AttrSum(telemetry.SpanPeriod, "shed"); got != res.ShedDemand {
		t.Errorf("trace shed sum = %g, want %g", got, res.ShedDemand)
	}
	// Every period ran the controller, so mpc_step spans and QP activity
	// must be present and mutually consistent.
	if got := sum.Count(telemetry.SpanMPCStep); got != periods {
		t.Errorf("mpc_step spans = %d, want %d", got, periods)
	}
	if snap[telemetry.MetricQPSolves] == 0 || snap[telemetry.MetricQPIterations] == 0 {
		t.Errorf("no QP activity recorded: solves=%g iters=%g",
			snap[telemetry.MetricQPSolves], snap[telemetry.MetricQPIterations])
	}
	if got := sum.AttrSum(telemetry.SpanQPSolve, "iterations"); got != snap[telemetry.MetricQPIterations] {
		t.Errorf("trace iteration sum %g != registry %g", got, snap[telemetry.MetricQPIterations])
	}
	// dspp_spans_total{span=...} children must equal the trace counts for
	// every span name that occurred.
	for name, st := range sum.Spans {
		key := telemetry.MetricSpans + `{span="` + name + `"}`
		if got := snap[key]; got != float64(st.Count) {
			t.Errorf("%s = %g, trace says %d", key, got, st.Count)
		}
	}
}

// TestTelemetryCleanRunSummary pins the clean-path round trip too: no
// degradation, and the replayed line still matches.
func TestTelemetryCleanRunSummary(t *testing.T) {
	var buf bytes.Buffer
	hub := telemetry.New(telemetry.WithTraceWriter(&buf))
	inst := cappedInstance(t, 10)
	ctrl, err := core.NewController(inst, 3, core.WithTelemetry(hub))
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultedConfig(t, inst, nil)
	cfg.Policy = &MPCPolicy{Ctrl: ctrl}
	cfg.Telemetry = hub
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedSteps != 0 {
		t.Fatalf("clean scenario degraded: %+v", res)
	}
	events, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	line, ok := telemetry.DegradationFromTrace(events)
	if !ok || line != res.DegradationSummary() {
		t.Errorf("clean replay %q (ok=%v), want %q", line, ok, res.DegradationSummary())
	}
}

// loosePolicy reports every third step of the wrapped MPC policy as a
// loosely accepted solve.
type loosePolicy struct {
	*MPCPolicy
	steps int
}

func (p *loosePolicy) StepCtx(ctx context.Context, demand, prices [][]float64) (core.State, core.State, error) {
	p.steps++
	return p.MPCPolicy.StepCtx(ctx, demand, prices)
}

func (p *loosePolicy) LastDegradation() core.Degradation {
	d := p.MPCPolicy.LastDegradation()
	d.Loose = p.steps%3 == 0
	return d
}

// TestTelemetryLooseStepsSummary: loose steps are counted in the Result
// and dspp_loose_steps_total, keep the run from being called clean, and
// the trace replay reproduces the summary line.
func TestTelemetryLooseStepsSummary(t *testing.T) {
	var buf bytes.Buffer
	hub := telemetry.New(telemetry.WithTraceWriter(&buf))
	inst := cappedInstance(t, 10)
	ctrl, err := core.NewController(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultedConfig(t, inst, nil)
	cfg.Policy = &loosePolicy{MPCPolicy: &MPCPolicy{Ctrl: ctrl}}
	cfg.Telemetry = hub
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedSteps != 0 || res.LooseSteps != 4 {
		t.Fatalf("degraded %d loose %d, want 0 and 4", res.DegradedSteps, res.LooseSteps)
	}
	if got, want := res.DegradationSummary(), "mpc-w3: 8/12 steps clean, 4 loose"; got != want {
		t.Fatalf("summary %q, want %q", got, want)
	}
	if got := hub.Registry().Snapshot()[telemetry.MetricLooseSteps]; got != 4 {
		t.Fatalf("%s = %g, want 4", telemetry.MetricLooseSteps, got)
	}
	events, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if line, ok := telemetry.DegradationFromTrace(events); !ok || line != res.DegradationSummary() {
		t.Errorf("replay %q (ok=%v), want %q", line, ok, res.DegradationSummary())
	}
}
