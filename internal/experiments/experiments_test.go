package experiments

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dspp/internal/core"
	"dspp/internal/decomp"
	"dspp/internal/game"
	"dspp/internal/qp"
	"dspp/internal/telemetry"
)

const testSeed = 2012

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "333") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("lines = %d, want 5:\n%s", len(lines), out)
	}
}

func TestCheckMonotone(t *testing.T) {
	if err := checkMonotone("x", []float64{3, 2, 2, 1}, -1, 0.01); err != nil {
		t.Errorf("decreasing err = %v", err)
	}
	if err := checkMonotone("x", []float64{1, 5}, -1, 0.01); !errors.Is(err, ErrShape) {
		t.Errorf("rise err = %v", err)
	}
	if err := checkMonotone("x", []float64{1, 2, 3}, 1, 0.01); err != nil {
		t.Errorf("increasing err = %v", err)
	}
	if err := checkMonotone("x", []float64{3, 1}, 1, 0.01); !errors.Is(err, ErrShape) {
		t.Errorf("fall err = %v", err)
	}
	// Tolerance absorbs small wobble.
	if err := checkMonotone("x", []float64{100, 100.5, 99}, -1, 0.01); err != nil {
		t.Errorf("tolerant err = %v", err)
	}
}

func TestFig3(t *testing.T) {
	r := Fig3Prices()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if len(r.Hours) != 24 || len(r.Regions) != 4 {
		t.Errorf("dims: hours=%d regions=%d", len(r.Hours), len(r.Regions))
	}
	if len(r.Table.Rows) != 24 {
		t.Errorf("table rows = %d", len(r.Table.Rows))
	}
}

func TestFig4(t *testing.T) {
	r, err := Fig4DemandTracking(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if len(r.Servers) != 24 {
		t.Errorf("servers series = %d points", len(r.Servers))
	}
	// Peak allocation should land in the figure's ~60-110 server band.
	peak := 0.0
	for _, s := range r.Servers {
		if s > peak {
			peak = s
		}
	}
	if peak < 50 || peak > 150 {
		t.Errorf("peak servers = %g, want 50-150 (paper ~90)", peak)
	}
}

func TestFig5(t *testing.T) {
	r, err := Fig5PriceShifting()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	// Houston gains exactly what the others shed (total tracks demand).
	for h := range r.Hours {
		total := r.Servers[0][h] + r.Servers[1][h] + r.Servers[2][h]
		if total < 40 {
			t.Errorf("hour %d: total %g suspiciously low", h, total)
		}
	}
}

func TestFig6(t *testing.T) {
	r, err := Fig6HorizonSmoothing(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.MaxStep[len(r.MaxStep)-1] >= r.MaxStep[0]*0.75 {
		t.Errorf("K=30 max step %g not clearly below K=1 %g", r.MaxStep[len(r.MaxStep)-1], r.MaxStep[0])
	}
}

func TestFig7Small(t *testing.T) {
	// Smaller sweep than the bench (players ≤ 5) to keep tests fast.
	r, err := Fig7GameConvergence(testSeed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Players) != 5 || len(r.Iterations) != 3 {
		t.Fatalf("dims: players=%d caps=%d", len(r.Players), len(r.Iterations))
	}
	for ci := range r.Iterations {
		for _, it := range r.Iterations[ci] {
			if it < 1 {
				t.Errorf("cap idx %d: nonpositive iterations %d", ci, it)
			}
		}
	}
}

// TestFig7RoundsUnderRecentering: Fig 7's best-response re-solves are
// warm starts from the previous round's plan under cut quotas, so the
// solver's recentering rung fires on them; it changes IPM iterates only,
// and Algorithm 2's round counts stay exactly where Fig 7 reports them.
func TestFig7RoundsUnderRecentering(t *testing.T) {
	r, err := Fig7GameConvergence(testSeed, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{2, 2, 4, 21, 21, 52, 40, 4},
		{2, 3, 5, 7, 12, 36, 32, 39},
		{2, 2, 2, 4, 7, 6, 14, 10},
	}
	for ci := range want {
		for n, it := range want[ci] {
			if r.Iterations[ci][n] != it {
				t.Fatalf("cap=%g players=%d: %d rounds, Fig 7 has %d", r.Capacities[ci], n+1, r.Iterations[ci][n], it)
			}
		}
	}
	hub := telemetry.New()
	cfg := gameBRConfig(100)
	cfg.Telemetry = hub
	rng := rand.New(rand.NewSource(testSeed + 6*101))
	if _, err := game.BestResponse(gameScenario(rng, 6, 3, 100), cfg); err != nil {
		t.Fatal(err)
	}
	if got := hub.Registry().Snapshot()[telemetry.MetricQPRecenters]; got == 0 {
		t.Fatal("recentering never fired on the 6-player cap=100 game")
	}
}

func TestFig8(t *testing.T) {
	r, err := Fig8HorizonVsIterations(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFig9(t *testing.T) {
	r, err := Fig9HorizonVsCost(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckFig9(); err != nil {
		t.Fatal(err)
	}
	if len(r.Horizons) != 12 {
		t.Errorf("horizons = %d", len(r.Horizons))
	}
}

func TestFig10(t *testing.T) {
	r, err := Fig10ConstantHorizon()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckFig10(); err != nil {
		t.Fatal(err)
	}
	// The improvement from W=1 to W=10 should be substantial (>20%).
	if r.Cost[len(r.Cost)-1] > 0.8*r.Cost[0] {
		t.Errorf("W=10 cost %g vs W=1 %g: improvement too small", r.Cost[len(r.Cost)-1], r.Cost[0])
	}
}

func TestPriceOfStability(t *testing.T) {
	r, err := PriceOfStability(testSeed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationReconfigWeight(t *testing.T) {
	r, err := AblationReconfigWeight(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	// Cost should rise as movement is suppressed (trade-off visible).
	if r.Cost[len(r.Cost)-1] <= r.Cost[0] {
		t.Errorf("cost did not rise with c: %v", r.Cost)
	}
}

func TestAblationBaselines(t *testing.T) {
	r, err := AblationBaselines(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if len(r.Policies) != 5 {
		t.Errorf("policies = %v", r.Policies)
	}
}

func TestAblationPercentileSLA(t *testing.T) {
	r, err := AblationPercentileSLA()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationReservationRatio(t *testing.T) {
	r, err := AblationReservationRatio(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationGameStepSize(t *testing.T) {
	r, err := AblationGameStepSize(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationFFDExactness(t *testing.T) {
	r, err := AblationFFDExactness(testSeed, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateMM1Model(t *testing.T) {
	r, err := ValidateMM1Model(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelation(t *testing.T) {
	if c := correlation([]float64{1, 2, 3}, []float64{2, 4, 6}); c < 0.999 {
		t.Errorf("perfect correlation = %g", c)
	}
	if c := correlation([]float64{1, 2, 3}, []float64{3, 2, 1}); c > -0.999 {
		t.Errorf("perfect anticorrelation = %g", c)
	}
	if c := correlation([]float64{1, 1}, []float64{2, 3}); c != 0 {
		t.Errorf("constant series correlation = %g", c)
	}
	if c := correlation([]float64{1}, []float64{1, 2}); c != 0 {
		t.Errorf("length mismatch correlation = %g", c)
	}
}

func TestAblationSoftController(t *testing.T) {
	r, err := AblationSoftController(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Policies[1] != "soft-lqr" {
		t.Errorf("policies = %v", r.Policies)
	}
}

func TestGameRecedingHorizon(t *testing.T) {
	r, err := GameRecedingHorizon(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.MeanRounds < 1 {
		t.Errorf("mean rounds = %g", r.MeanRounds)
	}
}

func TestExtensionPooling(t *testing.T) {
	r, err := ExtensionPooling()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if len(r.Demand) != 5 {
		t.Errorf("rows = %d", len(r.Demand))
	}
}

func TestEndToEndLatency(t *testing.T) {
	r, err := EndToEndLatency(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.P95 < r.Mean {
		t.Errorf("p95 %g below mean %g", r.P95, r.Mean)
	}
}

func TestAblationIntegerRounding(t *testing.T) {
	r, err := AblationIntegerRounding(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.GapPct < 0 {
		t.Errorf("negative gap %g", r.GapPct)
	}
}

func TestPriceOfAnarchy(t *testing.T) {
	r, err := PriceOfAnarchy(testSeed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 4 {
		t.Errorf("rows = %d", len(r.Table.Rows))
	}
}

func TestPredictorShootout(t *testing.T) {
	r, err := PredictorShootout(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 6 {
		t.Errorf("predictors = %v", r.Names)
	}
}

func TestExtensionSpotPricing(t *testing.T) {
	r, err := ExtensionSpotPricing(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.SavingPct <= 0 || r.SavingPct >= 100 {
		t.Errorf("saving = %g%%", r.SavingPct)
	}
}

func TestOutageRecovery(t *testing.T) {
	r, err := OutageRecovery(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Fault.DegradedSteps == 0 || r.Fault.ShedDemand <= 0 {
		t.Errorf("degraded=%d shed=%g, want a degraded, shedding run",
			r.Fault.DegradedSteps, r.Fault.ShedDemand)
	}
	// The no-fault companion run must be clean end to end.
	if got := r.NoFault.DegradationSummary(); got != "mpc-w6: all 30 steps clean" {
		t.Errorf("no-fault summary = %q", got)
	}
}

// TestContinentalScaling runs the smoke curve's n120 point and drives
// the shape check's failure paths: a plan the instance check rejects and
// a solve over its time bound.
func TestContinentalScaling(t *testing.T) {
	cases := ContinentalScalingCases(false)[:1]
	r, err := ContinentalScaling(context.Background(), cases)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	rec := r.Records[0]
	if rec.Pairs <= rec.Locations || rec.Iterations <= 0 || rec.Seconds <= 0 || rec.Objective <= 0 {
		t.Fatalf("implausible record %+v", rec)
	}

	bounded := *r
	bounded.Records = []ContinentalScalingRecord{rec}
	bounded.Records[0].Bound = time.Nanosecond
	if err := bounded.Check(); !errors.Is(err, ErrShape) {
		t.Errorf("solve over its bound: Check = %v, want ErrShape", err)
	}
	bad := *r
	bad.Records = []ContinentalScalingRecord{rec}
	bad.Records[0].Problem = errors.New("over capacity")
	if err := bad.Check(); !errors.Is(err, ErrShape) {
		t.Errorf("infeasible plan: Check = %v, want ErrShape", err)
	}

	scn, err := decomp.NewScenario(decomp.ScenarioConfig{Locations: 120, DCSites: 12, Seed: 41, Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	inst := scn.Inst
	ses, err := inst.NewHorizonSession(2, qp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ses.SolveCtx(context.Background(), core.HorizonInput{X0: inst.NewState(), Demand: scn.Demand, Prices: scn.Prices})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkContinentalPlan(inst, plan.X[0], scn.Demand[0]); err != nil {
		t.Fatalf("solved plan rejected: %v", err)
	}
	// A served pair is a nonzero allocation on a feasible pair.
	l, v := -1, -1
	for i, row := range plan.X[0] {
		for j, x := range row {
			if x > 1 && l < 0 {
				l, v = i, j
			}
		}
	}
	if l < 0 {
		t.Fatal("plan serves no pair")
	}
	c, err := inst.Capacity(l)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(core.State){
		"negative":      func(x core.State) { x[l][v] = -1 },
		"over capacity": func(x core.State) { x[l][v] += c },
		"sla shortfall": func(x core.State) { x[l][v] /= 2 },
	} {
		x := plan.X[0].Clone()
		mutate(x)
		if err := checkContinentalPlan(inst, x, scn.Demand[0]); err == nil {
			t.Errorf("%s: plan accepted", name)
		}
	}
}
