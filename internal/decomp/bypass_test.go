package decomp

import (
	"math"
	"testing"

	"dspp/internal/core"
)

// clusteredInstance builds regions that share no data center: each of
// the clusters has dcsPer DCs of its own and locPer locations, every
// location feasible on two of its cluster's DCs. The monolithic solve
// then carries every DC's capacity rows in one Schur complement, while
// each shard carries only its own — the shape where coordination wins.
func clusteredInstance(t *testing.T, clusters, dcsPer, locPer int) (*core.Instance, [][]float64, [][]float64) {
	t.Helper()
	l, v := clusters*dcsPer, clusters*locPer
	sla := make([][]float64, l)
	for i := range sla {
		sla[i] = make([]float64, v)
		for j := range sla[i] {
			sla[i][j] = math.Inf(1)
		}
	}
	for c := 0; c < clusters; c++ {
		for k := 0; k < locPer; k++ {
			loc := c*locPer + k
			for d := 0; d < 2; d++ {
				sla[c*dcsPer+(k+d)%dcsPer][loc] = 0.01 + 0.001*float64(d)
			}
		}
	}
	weights, caps := make([]float64, l), make([]float64, l)
	for i := range weights {
		weights[i], caps[i] = 1e-4, 1e4
	}
	inst, err := core.NewInstance(core.Config{SLA: sla, ReconfigWeights: weights, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	demand, prices := make([][]float64, 2), make([][]float64, 2)
	for k := range demand {
		demand[k], prices[k] = make([]float64, v), make([]float64, l)
		for j := range demand[k] {
			demand[k][j] = 100
		}
		for j := range prices[k] {
			prices[k][j] = 0.05 + 0.001*float64(j%dcsPer)
		}
	}
	return inst, demand, prices
}

// TestDecideBypassHeuristic pins the cost model on its calibration:
// with the block-angular horizon solve a shard costs about its share of
// the monolithic solve, so coordination rounds only add work on the
// continental scenarios — both splits of the n120 scenario must bypass
// (the four-shard split measured 0.48× the monolithic speed). Regions
// that share no DC decompose: each shard factors only its own capacity
// rows, against the monolithic solve's one Schur complement over all of
// them.
func TestDecideBypassHeuristic(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{Locations: 120, DCSites: 12, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	clustered, cDemand, cPrices := clusteredInstance(t, 10, 4, 40)
	for _, tc := range []struct {
		inst           *core.Instance
		demand, prices [][]float64
		shardSize      int
		bypass         bool
	}{
		{scn.Inst, scn.Demand, scn.Prices, 60, true}, // 2 shards, densely shared
		{scn.Inst, scn.Demand, scn.Prices, 30, true}, // 4 shards: the rounds outweigh the split
		{clustered, cDemand, cPrices, 40, false},     // 10 independent regions
	} {
		part, err := NewPartition(tc.inst, tc.shardSize)
		if err != nil {
			t.Fatal(err)
		}
		dec := DecideBypass(tc.inst, part, Options{})
		if dec.Bypass != tc.bypass {
			t.Fatalf("shard size %d (%d shards): bypass=%t ratio=%.3f rounds=%d, want bypass=%t",
				tc.shardSize, len(part.Shards), dec.Bypass, dec.Ratio, dec.Rounds, tc.bypass)
		}
		ctrl, err := NewController(tc.inst, 2, Options{MaxShardSize: tc.shardSize})
		if err != nil {
			t.Fatal(err)
		}
		if ctrl.Bypassed() != tc.bypass {
			t.Fatalf("shard size %d: controller bypassed=%t, want %t", tc.shardSize, ctrl.Bypassed(), tc.bypass)
		}
		if _, _, err := ctrl.Step(tc.demand, tc.prices); err != nil {
			t.Fatalf("shard size %d: step: %v", tc.shardSize, err)
		}
	}
	// A negative ratio threshold disables the model outright.
	part, err := NewPartition(scn.Inst, 60)
	if err != nil {
		t.Fatal(err)
	}
	if dec := DecideBypass(scn.Inst, part, Options{BypassRatio: -1}); dec.Bypass {
		t.Fatal("BypassRatio < 0 must never bypass")
	}
}
