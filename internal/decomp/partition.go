// Package decomp holds the continental scenario generator and a
// coordinated sharded horizon solver: the location–DC support graph of a
// geo-realistic instance splits into weakly coupled regions, each solved
// by a core.HorizonSession on its sub-instance, while a dual-price
// coordination loop re-divides the capacity of DCs shared between
// regions. Since the block-angular horizon solve, one monolithic QP is
// faster than coordination at every measured size, so the MPC controllers
// all run core.Controller; the coordinated solver remains as a path the
// benchmark module times.
package decomp

import (
	"errors"
	"fmt"
	"math"

	"dspp/internal/core"
)

// Sentinel errors.
var (
	// ErrBadConfig flags invalid decomposition options.
	ErrBadConfig = errors.New("decomp: invalid configuration")
	// ErrCoordination means the dual-price loop could not produce a plan:
	// a shard solve failed.
	ErrCoordination = errors.New("decomp: coordination failed")
)

// Shard is one region of the partition: a set of locations plus every DC
// any of them can reach within the SLA. Locations partition across
// shards; DCs may repeat (those are the shared DCs coordination prices).
type Shard struct {
	// Locations lists the shard's global location indices, ascending.
	Locations []int
	// DCs lists the global DC indices feasible for at least one shard
	// location, ascending.
	DCs []int
}

// Partition is a geographic sharding of an instance's support graph.
type Partition struct {
	// Shards are the regions, in deterministic construction order.
	Shards []Shard
	// DCShards[l] is the number of shards DC l appears in (0 for DCs no
	// location can reach).
	DCShards []int
	// SharedDCs lists the DCs with DCShards > 1, ascending — the only
	// coupling between regions.
	SharedDCs []int
}

// NewPartition shards the instance's locations along the connected
// components of the location–DC support graph. Components larger than
// maxShardSize (0 = unbounded) are split by a breadth-first sweep over
// the support adjacency: BFS order keeps geographically adjacent
// locations together, so the cut runs through the thinnest part of the
// component the frontier reaches — a greedy stand-in for a min-cut that
// needs no weights and is deterministic. Every shard contains the full
// feasible-DC set of each of its locations, so shard sub-instances are
// always individually feasible and the only inter-shard coupling is
// capacity on the DCs two shards both list.
func NewPartition(inst *core.Instance, maxShardSize int) (*Partition, error) {
	return newPartition(inst, maxShardSize, nil)
}

// NewPartitionWeighted is NewPartition with a per-location work weight
// (typically mean forecast demand): oversized components are still swept
// breadth-first, but a shard is also cut once its accumulated weight
// reaches an equal share of the component's total, while never exceeding
// maxShardSize locations. Deadline budgeting divides a fixed wall-clock
// across concurrent shard solves, so balancing shards by load instead of
// location count evens out per-shard solve times — the count-only cut
// can put every hot location in one shard and make it the straggler
// every period. Weights must be non-negative and finite, one per
// location; an all-zero component falls back to the unweighted cut. A
// nil weights slice is exactly NewPartition.
func NewPartitionWeighted(inst *core.Instance, maxShardSize int, weights []float64) (*Partition, error) {
	return newPartition(inst, maxShardSize, weights)
}

func newPartition(inst *core.Instance, maxShardSize int, weights []float64) (*Partition, error) {
	if inst == nil {
		return nil, fmt.Errorf("nil instance: %w", ErrBadConfig)
	}
	if maxShardSize < 0 {
		return nil, fmt.Errorf("max shard size %d: %w", maxShardSize, ErrBadConfig)
	}
	v := inst.NumLocations()
	l := inst.NumDataCenters()
	if weights != nil {
		if len(weights) != v {
			return nil, fmt.Errorf("%d weights for %d locations: %w", len(weights), v, ErrBadConfig)
		}
		for i, w := range weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("weight[%d] = %g: %w", i, w, ErrBadConfig)
			}
		}
	}

	// Connected components by union-find: every location sharing a DC
	// joins that DC's first location.
	parent := make([]int, v)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra { // smallest root wins: deterministic labels
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	dcFirst := make([]int, l)
	for i := range dcFirst {
		dcFirst[i] = -1
	}
	var dcBuf []int
	for vi := 0; vi < v; vi++ {
		dcBuf = inst.FeasibleDCs(vi, dcBuf[:0])
		for _, dc := range dcBuf {
			if dcFirst[dc] < 0 {
				dcFirst[dc] = vi
			} else {
				union(dcFirst[dc], vi)
			}
		}
	}
	// Gather components in ascending-root order (ascending members).
	compOf := make(map[int]int)
	var comps [][]int
	for vi := 0; vi < v; vi++ {
		r := find(vi)
		ci, ok := compOf[r]
		if !ok {
			ci = len(comps)
			compOf[r] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], vi)
	}

	part := &Partition{DCShards: make([]int, l)}
	visited := make([]bool, v)
	dcStamp := make([]int, l)
	for i := range dcStamp {
		dcStamp[i] = -1
	}
	shardID := 0
	var locBuf []int
	flush := func(locs []int) {
		if len(locs) == 0 {
			return
		}
		sh := Shard{Locations: locs}
		for _, vi := range locs {
			dcBuf = inst.FeasibleDCs(vi, dcBuf[:0])
			for _, dc := range dcBuf {
				if dcStamp[dc] != shardID {
					dcStamp[dc] = shardID
					sh.DCs = append(sh.DCs, dc)
					part.DCShards[dc]++
				}
			}
		}
		sortInts(sh.DCs)
		part.Shards = append(part.Shards, sh)
		shardID++
	}
	for _, comp := range comps {
		if maxShardSize == 0 || len(comp) <= maxShardSize {
			flush(append([]int(nil), comp...))
			continue
		}
		// Weighted cut target: an equal share of the component's total
		// weight per shard, at the shard count the count-only cut would
		// produce. Zero total weight (or no weights) disables the
		// weighted cut and leaves the every-maxShardSize-pops rule.
		target := math.Inf(1)
		if weights != nil {
			var compW float64
			for _, vi := range comp {
				compW += weights[vi]
			}
			if compW > 0 {
				nShards := (len(comp) + maxShardSize - 1) / maxShardSize
				target = compW / float64(nShards)
			}
		}
		// BFS split: sweep the component from its lowest location, cutting
		// a shard every maxShardSize pops or — weighted — once the shard
		// holds its share of the component's demand.
		var cur, queue []int
		var curW float64
		for _, seed := range comp {
			if visited[seed] {
				continue
			}
			visited[seed] = true
			queue = append(queue, seed)
			for len(queue) > 0 {
				vi := queue[0]
				queue = queue[1:]
				cur = append(cur, vi)
				if weights != nil {
					curW += weights[vi]
				}
				if len(cur) == maxShardSize || curW >= target {
					sortInts(cur)
					flush(cur)
					cur, curW = nil, 0
				}
				dcBuf = inst.FeasibleDCs(vi, dcBuf[:0])
				for _, dc := range dcBuf {
					locBuf = inst.FeasibleLocations(dc, locBuf[:0])
					for _, vj := range locBuf {
						if !visited[vj] {
							visited[vj] = true
							queue = append(queue, vj)
						}
					}
				}
			}
		}
		sortInts(cur)
		flush(cur)
	}
	for dc, n := range part.DCShards {
		if n > 1 {
			part.SharedDCs = append(part.SharedDCs, dc)
		}
	}
	return part, nil
}

// sortInts is insertion sort: shard DC lists are short and nearly sorted
// (FeasibleDCs emits ascending per location), so this beats pulling in
// package sort for the hot construction path.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
