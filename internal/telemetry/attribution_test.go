package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestAttributionRing(t *testing.T) {
	r := NewAttributionRing(4)
	if r.Depth() != 4 || r.Periods() != 0 || r.Last() != nil || len(r.Snapshot()) != 0 {
		t.Fatal("fresh ring not empty")
	}
	for p := 1; p <= 6; p++ {
		r.Record(&Attribution{Period: p})
	}
	if r.Periods() != 6 {
		t.Fatalf("periods = %d, want 6", r.Periods())
	}
	if got := r.Last().Period; got != 6 {
		t.Fatalf("last period = %d, want 6", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d, want 4", len(snap))
	}
	// Oldest-first, with the two oldest records evicted.
	for i, a := range snap {
		if a.Period != i+3 {
			t.Fatalf("snapshot[%d].Period = %d, want %d", i, a.Period, i+3)
		}
	}
}

func TestAttributionRingNilSafe(t *testing.T) {
	var r *AttributionRing
	r.Record(&Attribution{})
	if r.Depth() != 0 || r.Periods() != 0 || r.Last() != nil || r.Snapshot() != nil {
		t.Fatal("nil ring methods must no-op")
	}
	NewAttributionRing(2).Record(nil) // nil record ignored
	var s *AttributionSink
	s.Record(&Attribution{})
	if s.Ring() != nil {
		t.Fatal("nil sink ring")
	}
	var h *Hub
	if h.Attribution() != nil {
		t.Fatal("nil hub sink")
	}
}

func TestAttributionRingConcurrent(t *testing.T) {
	r := NewAttributionRing(8)
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(&Attribution{Period: w*per + i, Resource: 1})
				r.Snapshot() // concurrent readers must see whole records
				r.Last()
			}
		}(w)
	}
	wg.Wait()
	if r.Periods() != writers*per {
		t.Fatalf("periods = %d, want %d", r.Periods(), writers*per)
	}
	for _, a := range r.Snapshot() {
		if a.Resource != 1 {
			t.Fatalf("torn record: %+v", a)
		}
	}
}

func TestAttributionSinkMetrics(t *testing.T) {
	hub := New()
	sink := hub.Attribution()
	if sink == nil || hub.Attribution() != sink {
		t.Fatal("sink must resolve once and be stable")
	}
	sink.Record(&Attribution{Period: 1, Resource: 10, Bandwidth: 2, Reconfig: 1, Shed: 0, Total: 13, Churn: 0.25})
	sink.Record(&Attribution{Period: 2, Resource: 5, Bandwidth: 1, Reconfig: 0.5, Shed: 3, Total: 9.5, Churn: 0.75})
	snap := hub.Registry().Snapshot()
	for comp, want := range map[string]float64{
		ComponentResource:  15,
		ComponentBandwidth: 3,
		ComponentReconfig:  1.5,
		ComponentShed:      3,
	} {
		key := fmt.Sprintf("%s{component=%q}", MetricCostComponent, comp)
		if got := snap[key]; got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	if got := snap[MetricPlacementChurn+"_count"]; got != 2 {
		t.Errorf("churn count = %g, want 2", got)
	}
	if got := snap[MetricPlacementChurn+"_sum"]; got != 1 {
		t.Errorf("churn sum = %g, want 1", got)
	}
	if got := sink.Ring().Periods(); got != 2 {
		t.Errorf("ring periods = %d, want 2", got)
	}
}

func TestStatusz(t *testing.T) {
	if page := Statusz(nil, 0); page.Periods != 0 || page.Recent != nil {
		t.Fatal("nil hub must yield empty page")
	}
	hub := New()
	sink := hub.Attribution()
	sink.Record(&Attribution{Period: 1, Resource: 4, Bandwidth: 1, Reconfig: 1, Total: 6, Churn: 0.2, Mode: "none"})
	sink.Record(&Attribution{Period: 2, Resource: 2, Bandwidth: 1, Reconfig: 0, Shed: 5, Total: 8, Churn: 0.6, ShedDemand: 0.005, Mode: "soft"})
	page := Statusz(hub, 0)
	if page.Periods != 2 || page.Retained != 2 || page.Depth != DefaultAttributionDepth {
		t.Fatalf("page header %+v", page)
	}
	ro := page.Rollup
	if ro.Resource != 6 || ro.Bandwidth != 2 || ro.Reconfig != 1 || ro.Shed != 5 || ro.Total != 14 {
		t.Fatalf("rollup %+v", ro)
	}
	if ro.MeanChurn != 0.4 || ro.ShedDemand != 0.005 || ro.DegradedPeriods != 1 {
		t.Fatalf("rollup tail %+v", ro)
	}
	if len(page.Recent) != 2 || page.Recent[0].Period != 1 {
		t.Fatalf("recent %v", page.Recent)
	}
	// n trims to the newest records but the rollup still covers everything.
	page = Statusz(hub, 1)
	if len(page.Recent) != 1 || page.Recent[0].Period != 2 || page.Rollup.Total != 14 {
		t.Fatalf("trimmed page %+v", page)
	}
}

func TestStatuszHandler(t *testing.T) {
	hub := New()
	for p := 1; p <= 3; p++ {
		hub.Attribution().Record(&Attribution{Period: p, Resource: float64(p), Total: float64(p)})
	}
	srv := httptest.NewServer(StatuszHandler(hub))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var page StatuszPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Periods != 3 || len(page.Recent) != 2 || page.Recent[1].Period != 3 {
		t.Fatalf("page %+v", page)
	}
	if page.Rollup.Resource != 6 {
		t.Fatalf("rollup resource = %g, want 6", page.Rollup.Resource)
	}

	bad, err := http.Get(srv.URL + "?n=zap")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n status %d", bad.StatusCode)
	}
}

func TestCriticalPaths(t *testing.T) {
	attrs := func(kv map[string]any) map[string]any { return kv }
	events := []TraceEvent{
		{Span: SpanCoordinate, ID: 10, DurUS: 1000, Attrs: attrs(map[string]any{
			"shards": 2.0, "rounds": 2.0, "converged": "true"})},
		{Span: SpanShardSolve, ID: 11, Parent: 10, DurUS: 300, Attrs: attrs(map[string]any{
			"shard": 0.0, "round": 0.0})},
		{Span: SpanShardSolve, ID: 12, Parent: 10, DurUS: 500, Attrs: attrs(map[string]any{
			"shard": 1.0, "round": 0.0})},
		{Span: SpanShardSolve, ID: 13, Parent: 10, DurUS: 200, Attrs: attrs(map[string]any{
			"shard": 0.0, "round": 1.0})},
		// A coordinate without shard_solve children (pre-provenance trace)
		// yields no path.
		{Span: SpanCoordinate, ID: 20, DurUS: 50},
	}
	paths := CriticalPaths(events)
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(paths))
	}
	p := paths[0]
	if p.ID != 10 || p.Shards != 2 || p.Rounds != 2 || !p.Converged {
		t.Fatalf("path header %+v", p)
	}
	if p.CriticalUS != 700 {
		t.Fatalf("critical us = %d, want 700", p.CriticalUS)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(p.Steps))
	}
	if p.Steps[0].Shard != 1 || p.Steps[0].Solves != 2 {
		t.Fatalf("round 0 step %+v", p.Steps[0])
	}
	if p.Steps[1].Shard != 0 || p.Steps[1].DurUS != 200 {
		t.Fatalf("round 1 step %+v", p.Steps[1])
	}
}
