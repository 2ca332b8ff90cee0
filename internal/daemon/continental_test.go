package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"dspp"
	"dspp/internal/telemetry"
)

// continentalScenario is the n120 / 12-DC continental scenario with the
// given topology seed.
func continentalScenario(t testing.TB, seed int64) *dspp.ContinentalScenario {
	t.Helper()
	scn, err := dspp.NewContinentalScenario(dspp.ContinentalScenarioConfig{
		Locations: 120, DCSites: 12, Seed: seed, Utilization: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// continentalFeed renders observations [from, to) for the continental
// scenario as a JSONL stream: the scenario's steady demand swung by a
// diurnal factor, and its flat prices.
func continentalFeed(t testing.TB, scn *dspp.ContinentalScenario, from, to int) string {
	t.Helper()
	var sb strings.Builder
	for k := from; k < to; k++ {
		obs := Observation{Demand: make([]float64, len(scn.Demand[0])), Prices: scn.Prices[0]}
		f := 0.85 + 0.15*math.Sin(2*math.Pi*float64(k)/24)
		for v, d := range scn.Demand[0] {
			obs.Demand[v] = d * f
		}
		line, err := json.Marshal(obs)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestDaemonContinentalSteadyState drives a continental daemon through
// quiet periods (identical observations, so the persistence forecast is
// constant) and checks every period's allocation against the instance:
// nonnegative, within every DC's capacity, and meeting the SLA demand
// constraint for the observed demand.
func TestDaemonContinentalSteadyState(t *testing.T) {
	scn := continentalScenario(t, 41)
	d, err := New(Config{Instance: scn.Inst, Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	obs := Observation{Demand: scn.Demand[0], Prices: scn.Prices[0]}
	const periods = 12
	for k := 0; k < periods; k++ {
		if err := d.runPeriod(context.Background(), obs); err != nil {
			t.Fatalf("period %d: %v", k, err)
		}
		x := d.State()
		for l := range x {
			c, err := scn.Inst.Capacity(l)
			if err != nil {
				t.Fatal(err)
			}
			var used float64
			for v, xv := range x[l] {
				if xv < -1e-9 {
					t.Fatalf("period %d: x[%d][%d] = %g < 0", k, l, v, xv)
				}
				used += xv
			}
			if !math.IsInf(c, 1) && used > c*(1+1e-6) {
				t.Fatalf("period %d: DC %d uses %g of capacity %g", k, l, used, c)
			}
		}
		slack, err := scn.Inst.DemandSlack(x, obs.Demand)
		if err != nil {
			t.Fatal(err)
		}
		for v, s := range slack {
			if s < -1e-6*(1+obs.Demand[v]) {
				t.Fatalf("period %d: location %d short of demand by %g", k, v, -s)
			}
		}
	}
	if got := d.Period(); got != periods {
		t.Fatalf("daemon completed %d periods, want %d", got, periods)
	}
}

// TestDaemonHTTPContinental runs the ops surface on a continental
// daemon: it must serve /healthz, /metrics (with the period/budget
// histograms populated) and /statusz records whose DC rows report each
// DC's instance capacity as its quota and carry no shard key.
func TestDaemonHTTPContinental(t *testing.T) {
	scn := continentalScenario(t, 19)
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
		t.Fatalf("continental attribution %g != total %g", a.ComponentSum(), a.Total)
	}
	if len(a.DCs) != 12 {
		t.Fatalf("dc rows %d, want 12", len(a.DCs))
	}
	for _, row := range a.DCs {
		c, err := scn.Inst.Capacity(row.DC)
		if err != nil {
			t.Fatal(err)
		}
		if row.Quota != c {
			t.Errorf("dc %d quota %g, want the instance capacity %g", row.DC, row.Quota, c)
		}
	}
	resp, err = http.Get(base + "/statusz?n=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"shard"`)) {
		t.Errorf("/statusz DC rows carry a shard key: %s", raw)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}
