package telemetry

import (
	"bytes"
	"context"
	"expvar"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}

	var g Gauge
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 111.5 {
		t.Fatalf("hist sum = %v, want 111.5", got)
	}
	// Bucket layout: le=1 gets {0.5, 1}, le=5 adds {3}, le=10 adds {7},
	// +Inf adds {100}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Fatalf("concurrent counter = %v, want 4000", got)
	}
}

func TestCounterVec(t *testing.T) {
	v := NewCounterVec("steps", "mode")
	v.With("soft").Add(2)
	v.With("hold").Inc()
	v.With("soft").Inc()
	if got := v.With("soft").Value(); got != 3 {
		t.Fatalf("soft = %v, want 3", got)
	}
	if got := v.Sum(); got != 4 {
		t.Fatalf("sum = %v, want 4", got)
	}
}

func TestNilSafety(t *testing.T) {
	// None of these may panic; all reads return zero values.
	var c *Counter
	c.Inc()
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value != 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram not empty")
	}
	var v *CounterVec
	v.With("x").Inc()
	if v.Sum() != 0 {
		t.Fatal("nil vec sum != 0")
	}
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", nil).Observe(1)
	r.CounterVec("d", "l").With("x").Inc()
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 || r.Table() != "" {
		t.Fatal("nil registry not empty")
	}
	var tr *Tracer
	sp := tr.Start("x", 0)
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	sp.SetAttr(Num("k", 1))
	sp.End()
	if sp.ID() != 0 {
		t.Fatal("nil span ID != 0")
	}
	var hub *Hub
	if hub.Registry() != nil || hub.Tracer() != nil || hub.QPHooks() != nil || hub.GameCostDeltaHist() != nil {
		t.Fatal("nil hub leaked a non-nil component")
	}
	if ctx := ContextWithSpan(context.Background(), nil); SpanIDFromContext(ctx) != 0 {
		t.Fatal("nil span polluted context")
	}
}

// TestDisabledZeroAlloc pins the zero-overhead guarantee: with telemetry
// disabled (nil hub, nil hooks, nil metrics), instrumentation sites —
// which guard struct-field access with a hooks != nil test, and call nil
// metrics/spans directly — allocate nothing.
func TestDisabledZeroAlloc(t *testing.T) {
	var hub *Hub
	hooks := hub.QPHooks() // nil
	var c *Counter
	var h *Histogram
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if hooks != nil {
			hooks.Solves.Inc()
		}
		c.Inc()
		h.Observe(7)
		sp := hub.Tracer().Start(SpanQPSolve, SpanIDFromContext(ctx))
		sp.SetAttr(Num("iterations", 7))
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %v per op, want 0", allocs)
	}
}

func BenchmarkDisabledOverhead(b *testing.B) {
	var hub *Hub
	hooks := hub.QPHooks() // nil
	var c *Counter
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if hooks != nil {
			hooks.Solves.Inc()
		}
		c.Add(7)
		h.Observe(7)
		sp := hub.Tracer().Start(SpanQPSolve, 0)
		sp.End()
	}
}

func TestRegistryPrometheusAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("dspp_x_total").Add(3)
	r.Gauge("dspp_g").Set(-1.5)
	r.Histogram("dspp_h", []float64{1, 2}).Observe(1.5)
	r.CounterVec("dspp_v_total", "mode").With("soft").Add(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dspp_x_total counter\ndspp_x_total 3\n",
		"# TYPE dspp_g gauge\ndspp_g -1.5\n",
		"dspp_h_bucket{le=\"1\"} 0\n",
		"dspp_h_bucket{le=\"2\"} 1\n",
		"dspp_h_bucket{le=\"+Inf\"} 1\n",
		"dspp_h_sum 1.5\n",
		"dspp_h_count 1\n",
		"dspp_v_total{mode=\"soft\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	snap := r.Snapshot()
	for k, want := range map[string]float64{
		"dspp_x_total":                3,
		"dspp_g":                      -1.5,
		"dspp_h_count":                1,
		"dspp_h_sum":                  1.5,
		"dspp_v_total{mode=\"soft\"}": 2,
	} {
		if got := snap[k]; got != want {
			t.Fatalf("snapshot[%q] = %v, want %v", k, got, want)
		}
	}

	tbl := r.Table()
	if !strings.Contains(tbl, "dspp_x_total") || !strings.Contains(tbl, "count=1 mean=1.5") {
		t.Fatalf("table missing entries:\n%s", tbl)
	}
}

func TestTracerJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hub := New(WithTraceWriter(&buf))
	tr := hub.Tracer()

	root := tr.Start(SpanRun, 0, Str("policy", "mpc-w6"), Num("steps", 2))
	ctx := ContextWithSpan(context.Background(), root)
	for i := 0; i < 2; i++ {
		p := tr.Start(SpanPeriod, SpanIDFromContext(ctx), Num("period", float64(i)))
		q := tr.Start(SpanQPSolve, p.ID())
		q.SetAttr(Num("iterations", float64(3+i)), Str("outcome", "ok"))
		q.End()
		p.SetAttr(Str("mode", "none"), Num("shed", 0))
		p.End()
	}
	root.End()

	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	// Children end before parents, so qp_solve lines precede their period.
	if events[0].Span != SpanQPSolve || events[1].Span != SpanPeriod {
		t.Fatalf("unexpected emission order: %s, %s", events[0].Span, events[1].Span)
	}
	if events[0].Parent != events[1].ID {
		t.Fatalf("qp_solve parent %d != period id %d", events[0].Parent, events[1].ID)
	}
	if events[1].Parent != events[4].ID || events[4].Span != SpanRun {
		t.Fatal("period not parented to run")
	}

	sum := Summarize(events)
	if sum.Count(SpanQPSolve) != 2 || sum.Count(SpanPeriod) != 2 || sum.Count(SpanRun) != 1 {
		t.Fatalf("bad span counts: %+v", sum.Spans)
	}
	if got := sum.AttrSum(SpanQPSolve, "iterations"); got != 7 {
		t.Fatalf("iterations sum = %v, want 7", got)
	}

	// The registry's span counters and the replayed trace must agree.
	snap := hub.Registry().Snapshot()
	for _, name := range []string{SpanRun, SpanPeriod, SpanQPSolve} {
		key := MetricSpans + "{span=\"" + name + "\"}"
		if got, want := snap[key], float64(sum.Count(name)); got != want {
			t.Fatalf("registry %s = %v, trace count = %v", key, got, want)
		}
	}

	if !strings.Contains(sum.Table(), SpanQPSolve) {
		t.Fatalf("summary table missing qp_solve:\n%s", sum.Table())
	}
}

func TestTracerFloatRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	v := 1.0/3.0 + 1e-9
	sp := tr.Start("x", 0, Num("v", v), Num("inf_guard", math.MaxFloat64))
	sp.End()
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := events[0].Num("v"); got != v {
		t.Fatalf("float attr round-trip: got %v, want %v", got, v)
	}
}

func TestFormatDegradationSummary(t *testing.T) {
	for _, tc := range []struct {
		degraded, anytime, soft, hold, loose int
		shed                                 float64
		want                                 string
	}{
		{want: "mpc-w6: all 30 steps clean"},
		{loose: 25, want: "mpc-w6: 5/30 steps clean, 25 loose"},
		{degraded: 4, anytime: 1, soft: 2, hold: 1, shed: 12.34,
			want: "mpc-w6: 4/30 steps degraded (anytime=1 soft=2 hold=1), shed 12.3 req/s total"},
		{degraded: 2, soft: 2, loose: 1, shed: 3,
			want: "mpc-w6: 2/30 steps degraded (anytime=0 soft=2 hold=0), shed 3.0 req/s total, 1 loose"},
	} {
		got := FormatDegradationSummary("mpc-w6", 30, tc.degraded, tc.anytime, tc.soft, tc.hold, tc.loose, tc.shed)
		if got != tc.want {
			t.Fatalf("summary = %q, want %q", got, tc.want)
		}
	}
}

func TestDegradationFromTrace(t *testing.T) {
	var buf bytes.Buffer
	hub := New(WithTraceWriter(&buf))
	tr := hub.Tracer()
	root := tr.Start(SpanRun, 0, Str("policy", "mpc-w4"), Num("steps", 4))
	for i, mode := range []string{"none", "anytime", "soft", "hold"} {
		p := tr.Start(SpanPeriod, root.ID(), Num("period", float64(i)))
		shed, loose := 0.0, 0.0
		if mode == "soft" {
			shed = 5.5
		}
		if mode == "none" {
			loose = 1
		}
		p.SetAttr(Str("mode", mode), Num("shed", shed), Num("loose", loose))
		p.End()
	}
	root.End()

	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	line, ok := DegradationFromTrace(events)
	if !ok {
		t.Fatal("no run span found")
	}
	want := FormatDegradationSummary("mpc-w4", 4, 3, 1, 1, 1, 1, 5.5)
	if line != want {
		t.Fatalf("trace summary = %q, want %q", line, want)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("dspp_pub_total").Add(1)
	PublishExpvar(r1)
	r2 := NewRegistry()
	r2.Counter("dspp_pub_total").Add(2)
	PublishExpvar(r2) // must not panic, must swap the backing registry
	v := expvar.Get("dspp_metrics")
	if v == nil {
		t.Fatal("dspp_metrics not published")
	}
	if !strings.Contains(v.String(), "2") {
		t.Fatalf("expvar did not track latest registry: %s", v.String())
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("dspp_hits_total").Add(9)
	h := MetricsHandler(r)
	rec := &recorder{header: make(http.Header)}
	h.ServeHTTP(rec, nil)
	if !strings.Contains(rec.body.String(), "dspp_hits_total 9") {
		t.Fatalf("handler output missing metric:\n%s", rec.body.String())
	}
	if ct := rec.header["Content-Type"]; len(ct) == 0 || !strings.Contains(ct[0], "version=0.0.4") {
		t.Fatalf("bad content type: %v", rec.header)
	}
}

// recorder is a minimal http.ResponseWriter (avoids importing
// net/http/httptest into the dependency-light package tests).
type recorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(c int)           { r.code = c }
