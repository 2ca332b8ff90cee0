// Package packing implements First-Fit-Decreasing bin packing. The paper's
// resource-competition game (§VI) assumes data-center capacity can be
// allocated to VMs without waste; it justifies this with the observation
// that when VM sizes are multiples of one another (as in GoGrid's 6
// doubling sizes), FFD packs them optimally with zero fragmentation. This
// package provides the FFD algorithm, whose tests check that argument on
// divisible size chains, and the packing ablation in internal/experiments
// uses it.
package packing

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sentinel errors.
var (
	// ErrBadParameter flags invalid sizes or capacities.
	ErrBadParameter = errors.New("packing: invalid parameter")
	// ErrItemTooLarge means an item exceeds the bin capacity.
	ErrItemTooLarge = errors.New("packing: item larger than bin")
)

// Result describes a packing: Bins[i] lists the item indices packed into
// bin i.
type Result struct {
	Bins [][]int
	// Waste is the total unused capacity across used bins.
	Waste float64
	// Capacity is the bin capacity used for the packing.
	Capacity float64
}

// NumBins returns the number of bins used.
func (r *Result) NumBins() int { return len(r.Bins) }

// FirstFitDecreasing packs items (sizes > 0) into bins of the given
// capacity using the FFD heuristic: sort descending, place each item into
// the first bin with room, opening a new bin when none fits.
func FirstFitDecreasing(sizes []float64, capacity float64) (*Result, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("capacity %g: %w", capacity, ErrBadParameter)
	}
	for i, s := range sizes {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("size[%d] = %g: %w", i, s, ErrBadParameter)
		}
		if s > capacity {
			return nil, fmt.Errorf("size[%d] = %g > capacity %g: %w", i, s, capacity, ErrItemTooLarge)
		}
	}
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })

	var bins [][]int
	var free []float64
	const eps = 1e-9
	for _, idx := range order {
		s := sizes[idx]
		placed := false
		for b := range bins {
			if free[b]+eps >= s {
				bins[b] = append(bins[b], idx)
				free[b] -= s
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, []int{idx})
			free = append(free, capacity-s)
		}
	}
	var waste float64
	for _, f := range free {
		waste += f
	}
	return &Result{Bins: bins, Waste: waste, Capacity: capacity}, nil
}

// LowerBound returns the trivial lower bound ⌈Σ sizes / capacity⌉ on the
// number of bins any packing needs.
func LowerBound(sizes []float64, capacity float64) (int, error) {
	if capacity <= 0 {
		return 0, fmt.Errorf("capacity %g: %w", capacity, ErrBadParameter)
	}
	var total float64
	for i, s := range sizes {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return 0, fmt.Errorf("size[%d] = %g: %w", i, s, ErrBadParameter)
		}
		total += s
	}
	return int(math.Ceil(total/capacity - 1e-9)), nil
}
