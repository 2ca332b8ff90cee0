package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dspp/internal/core"
	"dspp/internal/decomp"
	"dspp/internal/telemetry"
)

// testInstance is a small 2-DC × 3-location problem every solve finishes
// in well under a millisecond on.
func testInstance(t testing.TB) *core.Instance {
	t.Helper()
	inst, err := core.NewInstance(core.Config{
		SLA:             [][]float64{{1, 1, 1}, {1, 1, 1}},
		ReconfigWeights: []float64{1e-3, 2e-3},
		Capacities:      []float64{500, 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// testObs builds a deterministic observation for period k, with optional
// per-location delays.
func testObs(k int, withDelay bool) Observation {
	obs := Observation{
		Demand: []float64{
			40 + 5*float64(k%7),
			30 + 3*float64((k*2)%5),
			20 + 2*float64((k*3)%4),
		},
		Prices: []float64{0.1 + 0.01*float64(k%3), 0.12 + 0.005*float64(k%5)},
	}
	if withDelay {
		obs.Delay = []float64{0.012, 0.010, 0.011}
	}
	return obs
}

// feedLines renders observations [from, to) as a JSONL stream.
func feedLines(t testing.TB, from, to int, withDelay bool) string {
	t.Helper()
	var sb strings.Builder
	for k := from; k < to; k++ {
		line, err := json.Marshal(testObs(k, withDelay))
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func decodeReports(t testing.TB, buf *bytes.Buffer) []Report {
	t.Helper()
	var reps []Report
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad report line %q: %v", sc.Text(), err)
		}
		reps = append(reps, r)
	}
	return reps
}

// TestDaemonRunsFromReader: a drained JSONL stream runs one period per
// observation, reports each, skips a malformed line without dying, and
// moves the correction factors once enough ratios accumulate.
func TestDaemonRunsFromReader(t *testing.T) {
	var out bytes.Buffer
	d, err := New(Config{Instance: testInstance(t), Horizon: 4, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	feed := feedLines(t, 0, 3, true) + "{not json}\n" + feedLines(t, 3, 8, true)
	if err := d.Run(context.Background(), strings.NewReader(feed)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if d.Period() != 8 {
		t.Fatalf("completed %d periods, want 8", d.Period())
	}
	reps := decodeReports(t, &out)
	var good, bad int
	for _, r := range reps {
		if r.Err != "" {
			bad++
			continue
		}
		good++
		if r.Mode != "none" {
			t.Errorf("period %d degraded: %s", r.Period, r.Mode)
		}
		if r.Cost <= 0 {
			t.Errorf("period %d cost %g", r.Period, r.Cost)
		}
		if r.Servers <= 0 {
			t.Errorf("period %d servers %g", r.Period, r.Servers)
		}
	}
	if good != 8 || bad != 1 {
		t.Fatalf("reports: %d good, %d bad, want 8/1", good, bad)
	}
	last := reps[len(reps)-1]
	if last.DemandCorr == 0 || last.DelayCorr == 0 {
		t.Errorf("correction factors missing: %+v", last)
	}
	if err := testInstance(t).CheckState(d.State()); err != nil {
		t.Errorf("final state invalid: %v", err)
	}
}

// TestDaemonCheckpointResumeIdentical is the resume contract: a daemon
// stopped after period 5 and restarted from its checkpoint must produce
// reports for periods 5.. that match an uninterrupted run exactly —
// same modes, bit-identical costs, server counts, and corrections.
func TestDaemonCheckpointResumeIdentical(t *testing.T) {
	inst := testInstance(t)
	dir := t.TempDir()
	const total, cut = 12, 5

	run := func(ckpt string, from, to int) []Report {
		var out bytes.Buffer
		d, err := New(Config{
			Instance: inst, Horizon: 4,
			Budget:         200 * time.Millisecond,
			CheckpointPath: ckpt,
			Out:            &out,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background(), strings.NewReader(feedLines(t, from, to, true))); err != nil {
			t.Fatalf("run [%d,%d): %v", from, to, err)
		}
		return decodeReports(t, &out)
	}

	full := run(filepath.Join(dir, "full.json"), 0, total)
	ckpt := filepath.Join(dir, "split.json")
	_ = run(ckpt, 0, cut)

	// The resumed daemon must notice and restore the checkpoint.
	var out bytes.Buffer
	d, err := New(Config{
		Instance: inst, Horizon: 4,
		Budget:         200 * time.Millisecond,
		CheckpointPath: ckpt,
		Out:            &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Restored() {
		t.Fatal("daemon did not restore the checkpoint")
	}
	if d.Period() != cut {
		t.Fatalf("restored at period %d, want %d", d.Period(), cut)
	}
	if err := d.Run(context.Background(), strings.NewReader(feedLines(t, cut, total, true))); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	resumed := decodeReports(t, &out)

	if len(full) != total || len(resumed) != total-cut {
		t.Fatalf("report counts: full %d, resumed %d", len(full), len(resumed))
	}
	for i, r := range resumed {
		want := full[cut+i]
		if r.Period != want.Period || r.Mode != want.Mode {
			t.Fatalf("period %d: mode %q vs %q", r.Period, r.Mode, want.Mode)
		}
		if r.Cost != want.Cost {
			t.Errorf("period %d: cost %v != %v (must be bit-identical)", r.Period, r.Cost, want.Cost)
		}
		if r.Servers != want.Servers {
			t.Errorf("period %d: servers %v != %v", r.Period, r.Servers, want.Servers)
		}
		if r.DemandCorr != want.DemandCorr || r.DelayCorr != want.DelayCorr {
			t.Errorf("period %d: corrections (%v, %v) != (%v, %v)",
				r.Period, r.DemandCorr, r.DelayCorr, want.DemandCorr, want.DelayCorr)
		}
	}
}

// TestDaemonCancelMidStream: cancelling the context (the SIGTERM path)
// stops the loop cleanly — nil error, checkpoint on disk from the last
// completed period — even with observations still queued.
func TestDaemonCancelMidStream(t *testing.T) {
	inst := testInstance(t)
	ckpt := filepath.Join(t.TempDir(), "ck.json")
	var out bytes.Buffer
	d, err := New(Config{Instance: inst, Horizon: 3, CheckpointPath: ckpt, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	pr, pw := newBlockingFeed(feedLines(t, 0, 4, false))
	go func() { done <- d.Run(ctx, pr) }()
	// Wait for the 4 ready observations to complete, then cancel while
	// the daemon is blocked waiting for a 5th that never comes.
	waitFor(t, func() bool { return d.Period() == 4 })
	cancel()
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("cancelled run returned %v, want nil", err)
	}
	d2, err := New(Config{Instance: inst, Horizon: 3, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Restored() || d2.Period() != 4 {
		t.Fatalf("restore after cancel: restored=%v period=%d", d2.Restored(), d2.Period())
	}
}

// TestDaemonStallOverrunsAndHolds: a stall longer than the whole budget
// forces the hold rung and flags the overrun, then a cleared stall
// recovers to clean solves.
func TestDaemonStallOverrunsAndHolds(t *testing.T) {
	var out bytes.Buffer
	d, err := New(Config{
		Instance: testInstance(t), Horizon: 3,
		Budget:   20 * time.Millisecond,
		Watchdog: time.Second, // keep the watchdog out of this test
		Out:      &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetStall(40 * time.Millisecond)
	if err := d.Run(context.Background(), strings.NewReader(feedLines(t, 0, 2, false))); err != nil {
		t.Fatal(err)
	}
	d.SetStall(0)
	if err := d.Run(context.Background(), strings.NewReader(feedLines(t, 2, 3, false))); err != nil {
		t.Fatal(err)
	}
	reps := decodeReports(t, &out)
	if len(reps) != 3 {
		t.Fatalf("%d reports, want 3", len(reps))
	}
	for _, r := range reps[:2] {
		if r.Mode != "hold" {
			t.Errorf("stalled period %d mode %q, want hold", r.Period, r.Mode)
		}
		if !r.Overrun {
			t.Errorf("stalled period %d not flagged as overrun (wall %.1fms)", r.Period, r.WallMS)
		}
	}
	if reps[2].Mode != "none" || reps[2].Overrun {
		t.Errorf("recovered period: %+v", reps[2])
	}
}

// TestDaemonWatchdogRestart: a solve wedged past the watchdog limit is
// abandoned — the period holds its allocation, the controller is rebuilt,
// and the next period solves cleanly.
func TestDaemonWatchdogRestart(t *testing.T) {
	var out bytes.Buffer
	hub := telemetry.New()
	d, err := New(Config{
		Instance: testInstance(t), Horizon: 3,
		Watchdog:  30 * time.Millisecond,
		Telemetry: hub,
		Out:       &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetStall(10 * time.Second)
	if err := d.Run(context.Background(), strings.NewReader(feedLines(t, 0, 2, false))); err != nil {
		t.Fatal(err)
	}
	reps := decodeReports(t, &out)
	if len(reps) != 2 {
		t.Fatalf("%d reports, want 2", len(reps))
	}
	if !reps[0].Watchdog || reps[0].Mode != "watchdog-restart" {
		t.Fatalf("wedged period: %+v", reps[0])
	}
	if reps[1].Watchdog || reps[1].Mode != "none" {
		t.Fatalf("post-restart period: %+v", reps[1])
	}
	if d.WatchdogTrips() != 1 {
		t.Errorf("watchdog trips = %d, want 1", d.WatchdogTrips())
	}
	if got := hub.Registry().Snapshot()[telemetry.MetricDaemonWatchdog]; got != 1 {
		t.Errorf("watchdog metric = %g, want 1", got)
	}
}

// TestDaemonHTTP: observations over POST /observe drive periods, and the
// ops surface answers /healthz, /metrics and /statusz.
func TestDaemonHTTP(t *testing.T) {
	hub := telemetry.New()
	var out bytes.Buffer
	d, err := New(Config{
		Instance: testInstance(t), Horizon: 3,
		Telemetry: hub,
		Addr:      "127.0.0.1:0",
		Out:       &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, nil) }()
	waitFor(t, func() bool { return d.Addr() != "" })
	base := "http://" + d.Addr()

	body, err := json.Marshal(testObs(0, false))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /observe = %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return d.Period() == 1 })

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Period int    `json:"period"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Period != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(metrics.String(), telemetry.MetricDaemonPeriods) {
		t.Errorf("/metrics missing %s", telemetry.MetricDaemonPeriods)
	}
	if !strings.Contains(metrics.String(), telemetry.MetricDaemonPeriodSeconds) {
		t.Errorf("/metrics missing %s", telemetry.MetricDaemonPeriodSeconds)
	}

	// /statusz serves the period's attribution from the ring, and the
	// components sum to the cost the report line carried.
	page := getStatusz(t, base)
	if page.Periods != 1 || len(page.Recent) != 1 {
		t.Fatalf("statusz page %+v", page)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	reps := decodeReports(t, &out)
	if len(reps) != 1 || reps[0].Cost <= 0 {
		t.Fatalf("reports %+v", reps)
	}
	a := page.Recent[0]
	if relDiff(a.ComponentSum(), a.Total) > 1e-9 || relDiff(a.Total, reps[0].Cost) > 1e-9 {
		t.Fatalf("attribution %g/%g disagrees with reported cost %g",
			a.ComponentSum(), a.Total, reps[0].Cost)
	}
	if len(a.DCs) != 2 {
		t.Fatalf("dc rows %d, want 2", len(a.DCs))
	}
}

// TestDaemonObserveBodyLimit: a POST /observe body over the 16 MiB cap
// the JSONL scanner also applies is refused with 413 without being read
// past the cap, and nothing is queued.
func TestDaemonObserveBodyLimit(t *testing.T) {
	d, err := New(Config{Instance: testInstance(t), Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	body := io.MultiReader(strings.NewReader(`{"demand":[`),
		io.LimitReader(zeros{}, maxObservationBytes), strings.NewReader(`0]}`))
	rec := httptest.NewRecorder()
	d.handleObserve(rec, httptest.NewRequest(http.MethodPost, "/observe", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d, want 413", rec.Code)
	}
	if len(d.obsCh) != 0 {
		t.Fatal("oversized observation was queued")
	}
	ok, err := json.Marshal(testObs(0, false))
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	d.handleObserve(rec, httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(ok)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("valid body answered %d, want 202", rec.Code)
	}
}

// zeros reads as an endless run of "0," array elements.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = "0,"[i%2]
	}
	return len(p) &^ 1, nil
}

// TestDaemonHTTPDecomp runs the ops surface on the decomposed path: a
// sharded continental daemon must serve /healthz, /metrics (with the
// period/budget histograms populated) and /statusz records whose DC rows
// carry the shard ownership and quota view of the coordinated solve.
func TestDaemonHTTPDecomp(t *testing.T) {
	scn, err := decomp.NewScenario(decomp.ScenarioConfig{Locations: 120, DCSites: 12, Seed: 19, Utilization: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.New()
	var out bytes.Buffer
	d, err := New(Config{
		Instance:  scn.Inst,
		Horizon:   2,
		Budget:    2 * time.Second,
		Watchdog:  time.Minute,
		Telemetry: hub,
		Addr:      "127.0.0.1:0",
		Out:       &out,
		Decomp:    &decomp.Options{MaxShardSize: 30, BypassRatio: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, nil) }()
	waitFor(t, func() bool { return d.Addr() != "" })
	base := "http://" + d.Addr()

	obs := Observation{Demand: scn.Demand[0], Prices: scn.Prices[0]}
	body, err := json.Marshal(obs)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		resp, err := http.Post(base+"/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /observe = %d", resp.StatusCode)
		}
		waitFor(t, func() bool { return d.Period() == k+1 })
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Period int    `json:"period"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Period != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	snap := hub.Registry().Snapshot()
	if got := snap[telemetry.MetricDaemonPeriodSeconds+"_count"]; got != 2 {
		t.Errorf("period histogram count = %g, want 2", got)
	}
	if got := snap[telemetry.MetricBudgetUtilization+"_count"]; got != 2 {
		t.Errorf("budget histogram count = %g, want 2", got)
	}

	page := getStatusz(t, base)
	if page.Periods != 2 || len(page.Recent) != 2 {
		t.Fatalf("statusz page periods=%d recent=%d", page.Periods, len(page.Recent))
	}
	a := page.Recent[1]
	if relDiff(a.ComponentSum(), a.Total) > 1e-9 {
		t.Fatalf("decomp attribution %g != total %g", a.ComponentSum(), a.Total)
	}
	if len(a.DCs) != 12 {
		t.Fatalf("dc rows %d, want 12", len(a.DCs))
	}
	owned := 0
	for _, row := range a.DCs {
		if row.Shard >= 0 {
			owned++
		}
		if row.Quota <= 0 {
			t.Errorf("dc %d quota %g, want the coordinated solve's enforced capacity", row.DC, row.Quota)
		}
	}
	if owned == 0 {
		t.Error("no DC row carries shard ownership on the decomposed path")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// getStatusz fetches and decodes /statusz?n=0 (every retained record).
func getStatusz(t *testing.T, base string) *telemetry.StatuszPage {
	t.Helper()
	resp, err := http.Get(base + "/statusz?n=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statusz = %d", resp.StatusCode)
	}
	var page telemetry.StatuszPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return &page
}

func relDiff(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	m := want
	if m < 0 {
		m = -m
	}
	if m > 1 {
		return d / m
	}
	return d
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newBlockingFeed returns a reader that yields the given content and
// then blocks (instead of EOF) until the writer side is closed — the
// shape of a live stdin feed.
func newBlockingFeed(content string) (*blockingFeed, *blockingFeed) {
	bf := &blockingFeed{data: []byte(content), closed: make(chan struct{})}
	return bf, bf
}

type blockingFeed struct {
	data   []byte
	pos    int
	closed chan struct{}
}

func (b *blockingFeed) Read(p []byte) (int, error) {
	if b.pos < len(b.data) {
		n := copy(p, b.data[b.pos:])
		b.pos += n
		return n, nil
	}
	<-b.closed
	return 0, fmt.Errorf("feed closed: %w", errClosed)
}

var errClosed = fmt.Errorf("closed")

func (b *blockingFeed) Close() error {
	close(b.closed)
	return nil
}

// TestDaemonResumesTimeMajorCheckpoint loads a version-1 checkpoint
// written while the horizon QP still ordered its columns time-major (as
// the serialized WarmState still does) and resumes from it: the daemon
// must restore period and state, map the warm capsule onto its
// location-block columns, and continue the writer's own uninterrupted
// trajectory — to solver tolerance, since the factorization's rounding
// differs from the writer's.
func TestDaemonResumesTimeMajorCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1_time_major.json"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "dsppd.ckpt")
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	d, err := New(Config{
		Instance: testInstance(t), Horizon: 4,
		Budget:         200 * time.Millisecond,
		CheckpointPath: ckpt,
		Out:            &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	const cut, total = 5, 12
	if !d.Restored() || d.Period() != cut {
		t.Fatalf("restored=%t at period %d, want period %d", d.Restored(), d.Period(), cut)
	}
	if d.ctrl.WarmCapsule() == nil {
		t.Fatal("checkpoint's warm capsule was not restored")
	}
	if err := d.Run(context.Background(), strings.NewReader(feedLines(t, cut, total, true))); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	// Period costs of the writer's uninterrupted run, periods 5..11.
	want := []float64{31.426729664046995, 28.24795716033735, 27.648368381516114,
		24.336243859774495, 24.289898255137103, 25.068859444966918, 29.44866500775254}
	reps := decodeReports(t, &out)
	if len(reps) != len(want) {
		t.Fatalf("%d reports, want %d", len(reps), len(want))
	}
	for i, r := range reps {
		if r.Period != cut+i || r.Mode != "none" {
			t.Fatalf("report %d: period %d mode %q", i, r.Period, r.Mode)
		}
		if math.Abs(r.Cost-want[i]) > 1e-6*want[i] {
			t.Errorf("period %d: cost %.12g, writer's run %.12g", r.Period, r.Cost, want[i])
		}
	}
}
