package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	m := Constant{Level: 42}
	for _, k := range []int{0, 5, 1000} {
		if m.Rate(k) != 42 {
			t.Fatalf("Rate(%d) = %g", k, m.Rate(k))
		}
	}
}

func TestNewDiurnalValidation(t *testing.T) {
	if _, err := NewDiurnal(-1, 5); !errors.Is(err, ErrBadParameter) {
		t.Errorf("negative base err = %v", err)
	}
	if _, err := NewDiurnal(10, 5); !errors.Is(err, ErrBadParameter) {
		t.Errorf("peak<base err = %v", err)
	}
}

func TestDiurnalOnOffShape(t *testing.T) {
	d, err := NewDiurnal(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Night hours are at base.
	for _, h := range []int{0, 3, 5, 22, 23} {
		if got := d.Rate(h); got != 100 {
			t.Errorf("Rate(%d) = %g, want base 100", h, got)
		}
	}
	// Working hours are high.
	for h := 8; h < 17; h++ {
		if got := d.Rate(h); got < 800 {
			t.Errorf("Rate(%d) = %g, want near peak", h, got)
		}
	}
	// Shoulders are intermediate.
	for _, h := range []int{7, 17} {
		got := d.Rate(h)
		if got <= 100 || got >= 900 {
			t.Errorf("shoulder Rate(%d) = %g", h, got)
		}
	}
	// Day 2 repeats day 1.
	if d.Rate(10) != d.Rate(34) {
		t.Error("not periodic across days")
	}
	// Negative periods wrap safely.
	if got := d.Rate(-14); got != d.Rate(10) {
		t.Errorf("negative wrap: Rate(-14)=%g Rate(10)=%g", got, d.Rate(10))
	}
}

func TestDiurnalPhaseShift(t *testing.T) {
	d, err := NewDiurnal(10, 100)
	if err != nil {
		t.Fatal(err)
	}
	shifted := *d
	shifted.PhaseShift = 3
	if d.Rate(9) != shifted.Rate(6) {
		t.Error("phase shift does not relabel hours")
	}
}

func TestDiurnalZeroDefaults(t *testing.T) {
	d := &Diurnal{Base: 1, Peak: 10} // PeriodsPerDay / window left zero
	if got := d.Rate(12); got < 8 {
		t.Errorf("default window: Rate(12) = %g, want near peak", got)
	}
	if got := d.Rate(2); got != 1 {
		t.Errorf("default window: Rate(2) = %g, want base", got)
	}
}

func TestSinusoid(t *testing.T) {
	s := Sinusoid{Mean: 50, Amplitude: 30, PeriodsPerDay: 24}
	if math.Abs(s.Rate(0)-50) > 1e-9 {
		t.Errorf("Rate(0) = %g, want 50", s.Rate(0))
	}
	if math.Abs(s.Rate(6)-80) > 1e-9 {
		t.Errorf("Rate(6) = %g, want 80", s.Rate(6))
	}
	neg := Sinusoid{Mean: 5, Amplitude: 30, PeriodsPerDay: 24}
	if neg.Rate(18) != 0 {
		t.Errorf("negative rate not clamped: %g", neg.Rate(18))
	}
	if (Sinusoid{Mean: 1, PeriodsPerDay: 0}).Rate(0) != 1 {
		t.Error("zero PeriodsPerDay default broken")
	}
}

func TestRandomWalkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		mean, vol, rev float64
	}{
		{0, 0.1, 0.5}, {10, -1, 0.5}, {10, 0.1, 0}, {10, 0.1, 2},
	}
	for i, c := range cases {
		if _, err := NewRandomWalk(c.mean, c.vol, c.rev, rng); !errors.Is(err, ErrBadParameter) {
			t.Errorf("case %d err = %v", i, err)
		}
	}
	if _, err := NewRandomWalk(10, 0.1, 0.5, nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("nil rng err = %v", err)
	}
}

func TestRandomWalkProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	w, err := NewRandomWalk(100, 0.2, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Same period is stable; values stay nonnegative; walk actually moves.
	first := w.Rate(0)
	if w.Rate(0) != first {
		t.Error("Rate(0) not stable across calls")
	}
	moved := false
	prev := first
	for k := 1; k < 200; k++ {
		v := w.Rate(k)
		if v < 0 {
			t.Fatalf("negative demand at k=%d: %g", k, v)
		}
		if v != prev {
			moved = true
		}
		prev = v
	}
	if !moved {
		t.Error("random walk never moved")
	}
}

func TestRandomWalkMeanReversion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, err := NewRandomWalk(100, 0.05, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 5000
	for k := 0; k < n; k++ {
		sum += w.Rate(k)
	}
	avg := sum / float64(n)
	if avg < 60 || avg > 140 {
		t.Errorf("long-run average %g far from mean 100", avg)
	}
}

func TestFlashCrowd(t *testing.T) {
	f := FlashCrowd{Base: Constant{Level: 10}, Start: 5, Duration: 3, Multiplier: 8}
	if f.Rate(4) != 10 || f.Rate(8) != 10 {
		t.Error("spike leaked outside window")
	}
	for k := 5; k < 8; k++ {
		if f.Rate(k) != 80 {
			t.Errorf("Rate(%d) = %g, want 80", k, f.Rate(k))
		}
	}
}

func TestScaledAndTrace(t *testing.T) {
	s := Scaled{Base: Constant{Level: 7}, Factor: 3}
	if s.Rate(0) != 21 {
		t.Errorf("Scaled = %g", s.Rate(0))
	}
	tr := Trace{1, 2, 3}
	if tr.Rate(-5) != 1 || tr.Rate(1) != 2 || tr.Rate(99) != 3 {
		t.Errorf("Trace clamping broken: %g %g %g", tr.Rate(-5), tr.Rate(1), tr.Rate(99))
	}
	var empty Trace
	if empty.Rate(0) != 0 {
		t.Error("empty trace should be 0")
	}
}

func TestMaterialize(t *testing.T) {
	tr, err := Materialize(Constant{Level: 2}, 5)
	if err != nil || len(tr) != 5 || tr[4] != 2 {
		t.Errorf("Materialize = %v, %v", tr, err)
	}
	if _, err := Materialize(nil, 5); !errors.Is(err, ErrBadParameter) {
		t.Errorf("nil model err = %v", err)
	}
	if _, err := Materialize(Constant{}, -1); !errors.Is(err, ErrBadParameter) {
		t.Errorf("negative periods err = %v", err)
	}
}

func TestSamplePoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	// Small-mean regime (Knuth inversion).
	var sum int
	n := 20000
	for i := 0; i < n; i++ {
		k, err := SamplePoisson(3, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += k
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("small-mean sample mean %g, want 3", mean)
	}
	// Large-mean regime (normal approximation).
	sum = 0
	for i := 0; i < n; i++ {
		k, err := SamplePoisson(500, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += k
	}
	mean = float64(sum) / float64(n)
	if math.Abs(mean-500) > 2 {
		t.Errorf("large-mean sample mean %g, want 500", mean)
	}
}

func TestSamplePoissonEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k, err := SamplePoisson(0, 1, rng)
	if err != nil || k != 0 {
		t.Errorf("zero rate: %d, %v", k, err)
	}
	if _, err := SamplePoisson(-1, 1, rng); !errors.Is(err, ErrBadParameter) {
		t.Errorf("negative rate err = %v", err)
	}
	if _, err := SamplePoisson(1, 0, rng); !errors.Is(err, ErrBadParameter) {
		t.Errorf("zero period err = %v", err)
	}
	if _, err := SamplePoisson(1, 1, nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("nil rng err = %v", err)
	}
}

func TestPopulationWeights(t *testing.T) {
	w, err := PopulationWeights([]int{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[1]-0.75) > 1e-12 {
		t.Errorf("weights = %v", w)
	}
	if _, err := PopulationWeights(nil); !errors.Is(err, ErrBadParameter) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := PopulationWeights([]int{5, 0}); !errors.Is(err, ErrBadParameter) {
		t.Errorf("zero population err = %v", err)
	}
}

// Property: population weights always sum to 1 and are positive.
func TestQuickPopulationWeightsNormalized(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		pops := make([]int, len(raw))
		for i, r := range raw {
			pops[i] = int(r) + 1
		}
		w, err := PopulationWeights(pops)
		if err != nil {
			return false
		}
		var sum float64
		for _, x := range w {
			if x <= 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Diurnal rates always lie within [Base, Peak].
func TestQuickDiurnalBounded(t *testing.T) {
	f := func(seed int64, k int) bool {
		rng := rand.New(rand.NewSource(seed))
		base := rng.Float64() * 100
		peak := base + rng.Float64()*1000
		d, err := NewDiurnal(base, peak)
		if err != nil {
			return false
		}
		r := d.Rate(k % 100000)
		return r >= base-1e-9 && r <= peak+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(77))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// PopulationWeights returns per-city demand weights proportional to
// population, normalized to sum to 1.
func PopulationWeights(populations []int) ([]float64, error) {
	if len(populations) == 0 {
		return nil, fmt.Errorf("no populations: %w", ErrBadParameter)
	}
	var total float64
	for i, p := range populations {
		if p <= 0 {
			return nil, fmt.Errorf("population[%d]=%d: %w", i, p, ErrBadParameter)
		}
		total += float64(p)
	}
	out := make([]float64, len(populations))
	for i, p := range populations {
		out[i] = float64(p) / total
	}
	return out, nil
}
