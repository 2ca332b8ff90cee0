package main

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"dspp/internal/core"
	"dspp/internal/experiments"
	"dspp/internal/game"
)

// twoByTwo is a 2-DC, 2-location instance where each location is served
// best by its own DC and location 1 cannot reach DC 0 at all.
func twoByTwo(t *testing.T) (*core.Instance, []float64) {
	t.Helper()
	inst, err := core.NewInstance(core.Config{
		SLA:             [][]float64{{0.01, math.Inf(1)}, {0.02, 0.01}},
		ReconfigWeights: []float64{1e-3, 1e-3},
		Capacities:      []float64{10, 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst, []float64{100, 100}
}

func TestCheckPlanRejectsCorruptPlans(t *testing.T) {
	inst, demand := twoByTwo(t)
	good := core.State{{1, 0}, {0, 1}}
	if err := checkPlan(inst, good, demand); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		mutate func(core.State)
		want   string
	}{
		"negative":        {func(x core.State) { x[1][0] = -0.5 }, "state[1][0]"},
		"infeasible pair": {func(x core.State) { x[0][1] = 0.5 }, "infeasible pair"},
		"over capacity":   {func(x core.State) { x[0][0] = 11 }, "capacity"},
		"sla shortfall":   {func(x core.State) { x[1][1] = 0.5 }, "SLA"},
		"nan":             {func(x core.State) { x[0][0] = math.NaN() }, "state[0][0]"},
	} {
		x := good.Clone()
		tc.mutate(x)
		err := checkPlan(inst, x, demand)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", name, err, tc.want)
		}
	}
}

// smallGame solves one Fig 7 game, returning the scenario and its result.
func smallGame(t *testing.T) (*game.Scenario, *game.BestResponseResult) {
	t.Helper()
	s := newSweep(paperSeed, 3)
	sc := s.scenarios[len(s.scenarios)-1] // capacity 300, three players
	br, err := game.BestResponse(sc, fig7BRConfig(nil))
	if err != nil && !errors.Is(err, game.ErrNotConverged) {
		t.Fatal(err)
	}
	if !br.Converged {
		t.Fatal("test game did not converge")
	}
	return sc, br
}

// cloneResult deep-copies the parts checkGame reads.
func cloneResult(br *game.BestResponseResult) *game.BestResponseResult {
	out := *br
	out.Quotas = make([][]float64, len(br.Quotas))
	for i, q := range br.Quotas {
		out.Quotas[i] = append([]float64(nil), q...)
	}
	out.Outcomes = make([]game.Outcome, len(br.Outcomes))
	for i, o := range br.Outcomes {
		out.Outcomes[i] = o
		out.Outcomes[i].X = make([]core.State, len(o.X))
		for t, x := range o.X {
			out.Outcomes[i].X[t] = x.Clone()
		}
	}
	return &out
}

func TestCheckGameRejectsCorruptQuotas(t *testing.T) {
	sc, br := smallGame(t)
	if err := checkGame(sc, br); err != nil {
		t.Fatalf("solved game rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		mutate func(*game.BestResponseResult)
		want   string
	}{
		"quotas over capacity": {func(r *game.BestResponseResult) { r.Quotas[0][0] += sc.Capacity[0] }, "quotas sum"},
		"negative quota":       {func(r *game.BestResponseResult) { r.Quotas[1][0] = -1 }, "quota at DC 0"},
		"plan over quota": {func(r *game.BestResponseResult) {
			// Move half of what the largest bottleneck user holds there to
			// another provider: the quotas still sum to the capacity.
			top, most := 0, 0.0
			for i, o := range r.Outcomes {
				var used float64
				for _, x := range o.X[0][0] {
					used += x * sc.Providers[i].ServerSize
				}
				if used > most {
					top, most = i, used
				}
			}
			r.Quotas[top][0] -= most / 2
			r.Quotas[(top+1)%len(r.Quotas)][0] += most / 2
		}, "units of DC 0"},
		"plan over capacity": {func(r *game.BestResponseResult) {
			// Not converged: quotas are one re-division ahead of the
			// plans, so only the DC total can be checked.
			r.Converged = false
			for v := range r.Outcomes[2].X[1][0] {
				r.Outcomes[2].X[1][0][v] += sc.Capacity[0]
			}
		}, "capacity"},
		"sla shortfall": {func(r *game.BestResponseResult) {
			for l := range r.Outcomes[1].X[0] {
				r.Outcomes[1].X[0][l][0] *= 0.5
			}
		}, "SLA"},
	} {
		r := cloneResult(br)
		tc.mutate(r)
		err := checkGame(sc, r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", name, err, tc.want)
		}
	}
}

func TestCostGapWindow(t *testing.T) {
	for _, tc := range []struct {
		decomp, mono float64
		ok           bool
	}{
		{100.5, 100, true}, {100, 100, true}, {99.995, 100, true},
		{101.5, 100, false}, {99.98, 100, false}, {100, 0, false}, {math.NaN(), 100, false},
	} {
		_, err := costGapPct(tc.decomp, tc.mono)
		if (err == nil) != tc.ok {
			t.Errorf("costGapPct(%g, %g) err = %v, want ok=%t", tc.decomp, tc.mono, err, tc.ok)
		}
	}
}

func TestCheckFig7(t *testing.T) {
	ref := [][]int{{1, 2}, {3, 4}, {5, 6}}
	if err := checkFig7(1, ref, ref); err != nil {
		t.Fatal(err)
	}
	bad := [][]int{{1, 2}, {3, 5}, {5, 6}}
	if err := checkFig7(1, bad, ref); err == nil {
		t.Error("differing iteration matrix accepted")
	}
	// At the paper seed with ten players the capacity-100 mean is pinned.
	row := []int{70, 70, 70, 70, 70, 80, 80, 80, 80, 76} // mean 74.6
	pinned := [][]int{row, row, row}
	if err := checkFig7(paperSeed, pinned, pinned); err != nil {
		t.Errorf("mean 74.60 rejected: %v", err)
	}
	off := [][]int{append(append([]int(nil), row[:9]...), 77), row, row}
	if err := checkFig7(paperSeed, off, off); err == nil {
		t.Error("mean 74.70 accepted at the paper seed")
	}
}

// TestFig7ReplicaMatchesExperiment guards the copied Fig 7 generator: a
// sweep at the paper seed reproduces the experiment's iteration counts
// and the pinned mean_iters_cap100.
func TestFig7ReplicaMatchesExperiment(t *testing.T) {
	ref, err := experiments.Fig7GameConvergence(paperSeed, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := newRecord("game-fig7", paperSeed, 1, false)
	sw := newSweep(paperSeed, 10)
	iters, _, failed, _ := sw.check(r, sw.run(context.Background(), nil))
	if failed > 0 || len(r.Problems) > 0 {
		t.Fatalf("%d games failed, problems %v", failed, r.Problems)
	}
	if err := checkFig7(paperSeed, iters, ref.Iterations); err != nil {
		t.Fatal(err)
	}
}
