package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail read off fewer samples is one or two outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs
// need not be sorted; it is not modified. NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the nearest-rank p-th percentile of n
// samples.
func nearestRank(n int, p float64) int {
	// p/100·n lands a rounding error above an integer for p = 99.9; the
	// relative nudge keeps the rank exact.
	x := p / 100 * float64(n)
	r := int(math.Ceil(x - 1e-9*x))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile's rank.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// tailPercentiles is the ladder highestTail picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestTail returns the highest percentile of the ladder that still has
// at least minBeyond samples beyond it, or 0 when n is too small for even
// the median.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// tail returns the p-th percentile of xs, or an error when fewer than
// minBeyond samples lie beyond it.
func tail(xs []float64, p float64) (float64, error) {
	if b := beyond(len(xs), p); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥ %d (the highest percentile with that many is p%g)",
			p, len(xs), b, minBeyond, highestTail(len(xs)))
	}
	return percentile(xs, p), nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the exclusive method of Python's statistics.quantiles(xs, n=4), so
// spreads computed here match a reader's own check. A single sample is
// its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// mean is the arithmetic mean (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sum adds xs up.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// lateness returns, per request, how long after it was due its result
// arrived: an open-loop request is timed from its schedule, not from when
// the generator managed to send it, so a stall also charges every request
// queued behind it.
func lateness(due, done []time.Time) []time.Duration {
	out := make([]time.Duration, len(due))
	for i := range due {
		out[i] = done[i].Sub(due[i])
	}
	return out
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// scaled returns xs multiplied by f, for unit changes.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
