package daemon

import (
	"context"
	"math"
	"testing"

	"dspp/internal/decomp"
)

// TestDaemonDecompSteadyState drives a decomposed daemon through quiet
// periods (identical observations, so the persistence forecast is
// constant) and checks every period at the daemon level: the coordinated
// solution is reported with its rounds and shard solves (every round
// re-solves every shard), and the allocation it leaves is feasible
// against the instance — nonnegative, within every DC's capacity, and
// meeting the SLA demand constraint for the observed demand.
func TestDaemonDecompSteadyState(t *testing.T) {
	scn, err := decomp.NewScenario(decomp.ScenarioConfig{
		Locations: 120, DCSites: 12, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := decomp.NewPartition(scn.Inst, 30)
	if err != nil {
		t.Fatal(err)
	}
	shards := len(part.Shards)
	if shards < 2 {
		t.Fatalf("scenario partitioned into %d shards, need ≥ 2", shards)
	}
	d, err := New(Config{
		Instance: scn.Inst,
		Horizon:  2,
		Decomp: &decomp.Options{
			MaxShardSize: 30,
			// Force coordination regardless of the cost model: this test is
			// about the coordinated loop, not the bypass.
			BypassRatio: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := Observation{Demand: scn.Demand[0], Prices: scn.Prices[0]}
	const periods = 12
	for k := 0; k < periods; k++ {
		if err := d.runPeriod(context.Background(), obs); err != nil {
			t.Fatalf("period %d: %v", k, err)
		}
		sol := d.LastSolution()
		if sol == nil {
			t.Fatalf("period %d: daemon reports no coordinated solution", k)
		}
		if sol.Rounds < 1 || sol.ShardSolves != sol.Rounds*shards {
			t.Fatalf("period %d: %d shard solves in %d rounds of %d shards", k, sol.ShardSolves, sol.Rounds, shards)
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
