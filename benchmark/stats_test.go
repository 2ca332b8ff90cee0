package main

import (
	"bufio"
	"io"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {100, 10}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of no samples is not NaN")
	}
}

func TestHighestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0},
	} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 99)
	if _, err := tail(xs, 90); err == nil {
		t.Errorf("p90 of 99 samples accepted with 9 beyond it")
	}
	if _, err := tail(make([]float64, 100), 90); err != nil {
		t.Errorf("p90 of 100 samples: %v", err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from statistics.quantiles(xs, n=4) (method 'exclusive').
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestOpenLoopLatencyCountsStall stalls a consumer on one line: the
// generator is held back by the blocked writes, yet every line behind the
// stall is charged the wait from when it was due.
func TestOpenLoopLatencyCountsStall(t *testing.T) {
	const (
		n     = 10
		rate  = 200.0 // one line per 5 ms
		stall = 60 * time.Millisecond
		at    = 3
	)
	pr, pw := io.Pipe()
	done := make([]time.Time, n)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		sc := bufio.NewScanner(pr)
		for i := 0; sc.Scan(); i++ {
			if i == at {
				time.Sleep(stall)
			}
			done[i] = time.Now()
		}
	}()
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = []byte("obs\n")
	}
	due, lag, _, _, err := feedOpenLoop(pw, lines, time.Now(), rate, nil)
	if err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-finished
	late := lateness(due, done)
	if late[at] < stall {
		t.Errorf("stalled line late by %v, want ≥ %v", late[at], stall)
	}
	// Line at+2 was due 10 ms after the stalled one and could not be
	// served before the stall ended.
	if want := stall - 2*time.Second/rate; late[at+2] < want {
		t.Errorf("line behind the stall late by %v, want ≥ %v", late[at+2], want)
	}
	if lag[at+2] <= 0 {
		t.Errorf("generator lag behind the stall = %v, want > 0 (the blocked write held it back)", lag[at+2])
	}
	if late[0] > stall/2 {
		t.Errorf("line before the stall late by %v", late[0])
	}
}

// TestStopwatchLeavesOutWaits checks that an operation's CPU time counts
// its work and not a wait: a sleep reads in wall time only, and a busy
// loop reads in both.
func TestStopwatchLeavesOutWaits(t *testing.T) {
	const wait = 50 * time.Millisecond
	sw := startStopwatch()
	time.Sleep(wait)
	wall, cpu := sw.elapsed()
	if wall < wait || cpu > wait/5 {
		t.Errorf("sleep of %v: wall %v, cpu %v; want wall ≥ %v and cpu ≤ %v", wait, wall, cpu, wait, wait/5)
	}
	sw = startStopwatch()
	c := newRefClock()
	defer c.close()
	for time.Since(sw.wall) < wait {
		c.sample()
	}
	if _, cpu := sw.elapsed(); cpu < wait/5 {
		t.Errorf("busy loop of %v: cpu %v", wait, cpu)
	}
}
