package packing

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFFDSimple(t *testing.T) {
	res, err := FirstFitDecreasing([]float64{5, 5, 5, 5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBins() != 2 {
		t.Errorf("bins = %d, want 2", res.NumBins())
	}
	if res.Waste != 0 {
		t.Errorf("waste = %g, want 0", res.Waste)
	}
}

func TestFFDEmpty(t *testing.T) {
	res, err := FirstFitDecreasing(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBins() != 0 || res.Waste != 0 {
		t.Errorf("empty packing: bins=%d waste=%g", res.NumBins(), res.Waste)
	}
}

func TestFFDErrors(t *testing.T) {
	if _, err := FirstFitDecreasing([]float64{1}, 0); !errors.Is(err, ErrBadParameter) {
		t.Errorf("capacity 0 err = %v", err)
	}
	if _, err := FirstFitDecreasing([]float64{-1}, 10); !errors.Is(err, ErrBadParameter) {
		t.Errorf("negative size err = %v", err)
	}
	if _, err := FirstFitDecreasing([]float64{math.NaN()}, 10); !errors.Is(err, ErrBadParameter) {
		t.Errorf("NaN size err = %v", err)
	}
	if _, err := FirstFitDecreasing([]float64{11}, 10); !errors.Is(err, ErrItemTooLarge) {
		t.Errorf("oversized err = %v", err)
	}
}

func TestFFDEveryItemPackedOnce(t *testing.T) {
	sizes := []float64{7, 3, 2, 5, 5, 4, 6, 1, 1, 8}
	res, err := FirstFitDecreasing(sizes, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for b, bin := range res.Bins {
		var load float64
		for _, idx := range bin {
			if seen[idx] {
				t.Fatalf("item %d packed twice", idx)
			}
			seen[idx] = true
			load += sizes[idx]
		}
		if load > 10+1e-9 {
			t.Errorf("bin %d overloaded: %g", b, load)
		}
	}
	if len(seen) != len(sizes) {
		t.Errorf("packed %d of %d items", len(seen), len(sizes))
	}
}

// The paper's claim: with divisible (doubling) sizes, FFD achieves the
// lower bound exactly — no wasted capacity in any full bin.
func TestFFDOptimalOnDivisibleSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	gogrid := GoGridSizes()
	if !Divisible(gogrid) {
		t.Fatal("GoGrid sizes should be divisible")
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		sizes := make([]float64, n)
		var total float64
		for i := range sizes {
			sizes[i] = gogrid[rng.Intn(len(gogrid))]
			total += sizes[i]
		}
		const capacity = 32
		res, err := FirstFitDecreasing(sizes, capacity)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := LowerBound(sizes, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumBins() != lb {
			t.Errorf("trial %d: FFD used %d bins, lower bound %d (total %g)",
				trial, res.NumBins(), lb, total)
		}
	}
}

func TestDivisible(t *testing.T) {
	cases := []struct {
		sizes []float64
		want  bool
	}{
		{nil, true},
		{[]float64{4}, true},
		{[]float64{1, 2, 4, 8}, true},
		{[]float64{2, 2, 4}, true},
		{[]float64{3, 6, 12}, true},
		{[]float64{1, 3, 6}, true}, // 1|3, 3|6
		{[]float64{2, 3}, false},
		{[]float64{2, 5, 10}, false},
		{[]float64{0, 2}, false},
		{[]float64{-1, 2}, false},
	}
	for i, c := range cases {
		if got := Divisible(c.sizes); got != c.want {
			t.Errorf("case %d Divisible(%v) = %v, want %v", i, c.sizes, got, c.want)
		}
	}
}

func TestLowerBound(t *testing.T) {
	lb, err := LowerBound([]float64{5, 5, 1}, 10)
	if err != nil || lb != 2 {
		t.Errorf("lb = %d, %v; want 2", lb, err)
	}
	lb, err = LowerBound(nil, 10)
	if err != nil || lb != 0 {
		t.Errorf("empty lb = %d, %v", lb, err)
	}
	if _, err := LowerBound([]float64{1}, 0); !errors.Is(err, ErrBadParameter) {
		t.Errorf("capacity err = %v", err)
	}
	if _, err := LowerBound([]float64{-2}, 5); !errors.Is(err, ErrBadParameter) {
		t.Errorf("size err = %v", err)
	}
}

// Property: FFD never exceeds capacity in any bin and never uses more than
// the classic 11/9·OPT + 1 bins (checked against the lower bound).
func TestQuickFFDBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		const capacity = 100.0
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Float64()*99
		}
		res, err := FirstFitDecreasing(sizes, capacity)
		if err != nil {
			return false
		}
		for _, bin := range res.Bins {
			var load float64
			for _, idx := range bin {
				load += sizes[idx]
			}
			if load > capacity+1e-6 {
				return false
			}
		}
		lb, err := LowerBound(sizes, capacity)
		if err != nil {
			return false
		}
		return float64(res.NumBins()) <= math.Ceil(11.0/9.0*float64(lb))+1
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: waste equals used capacity minus total item size.
func TestQuickFFDWasteAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		const capacity = 50.0
		sizes := make([]float64, n)
		var total float64
		for i := range sizes {
			sizes[i] = 1 + rng.Float64()*49
			total += sizes[i]
		}
		res, err := FirstFitDecreasing(sizes, capacity)
		if err != nil {
			return false
		}
		want := float64(res.NumBins())*capacity - total
		return math.Abs(res.Waste-want) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Divisible reports whether the distinct sizes form a divisibility chain:
// sorted ascending, each size divides the next (within tolerance). GoGrid's
// doubling VM sizes satisfy this; it is the condition under which FFD
// wastes nothing on full bins (§VI).
func Divisible(sizes []float64) bool {
	if len(sizes) == 0 {
		return true
	}
	uniq := dedupeSorted(sizes)
	for _, s := range uniq {
		if s <= 0 {
			return false
		}
	}
	for i := 1; i < len(uniq); i++ {
		ratio := uniq[i] / uniq[i-1]
		if math.Abs(ratio-math.Round(ratio)) > 1e-9 {
			return false
		}
	}
	return true
}

// GoGridSizes returns the six doubling VM sizes (in abstract capacity
// units) that the paper cites as the GoGrid offering.
func GoGridSizes() []float64 {
	return []float64{1, 2, 4, 8, 16, 32}
}

func dedupeSorted(sizes []float64) []float64 {
	s := append([]float64(nil), sizes...)
	sort.Float64s(s)
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}
