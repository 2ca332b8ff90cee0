package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// horizonBlocks draws a random SPD block-diagonal band matrix with the
// horizon QP's pattern: block v holds widths[v] pairs over w steps,
// time-major, every pair of one step coupled (a demand row) and each pair
// coupled to itself one step later (the reconfiguration term). The band
// is as wide as the widest block (one less at w = 1), so narrower blocks
// are padded. It returns the dense matrix, its packed band, the
// envelope's row starts and the block boundaries.
func horizonBlocks(rng *rand.Rand, widths []int, w int) (*Matrix, *BandMatrix, []int, []int) {
	n, widest := 0, 0
	bnd := []int{0}
	for _, p := range widths {
		n += p * w
		widest = max(widest, p)
		bnd = append(bnd, n)
	}
	bw := widest - 1
	if w > 1 {
		bw = widest
	}
	d := NewMatrix(n, n)
	set := func(i, j int) {
		v := rng.NormFloat64()
		d.Set(i, j, v)
		d.Set(j, i, v)
	}
	for v, p := range widths {
		for t := 0; t < w; t++ {
			for j := 0; j < p; j++ {
				i := bnd[v] + t*p + j
				for k := 0; k < j; k++ {
					set(i, bnd[v]+t*p+k)
				}
				if t > 0 {
					set(i, i-p)
				}
			}
		}
	}
	first := make([]int, n)
	for i := 0; i < n; i++ {
		first[i] = i
		for j := i - 1; j >= max(0, i-bw); j-- {
			if d.At(i, j) != 0 {
				first[i] = j
			}
		}
		// Diagonal dominance keeps it SPD whatever the off-diagonals.
		d.Set(i, i, float64(2*bw+2)+rng.Float64())
	}
	b := NewBandMatrix(n, bw)
	for i := 0; i < n; i++ {
		for j := max(0, i-bw); j <= i; j++ {
			_ = b.Set(i, j, d.At(i, j))
		}
	}
	return d, b, first, bnd
}

// decreasingStart draws a 4×4 SPD band (bw = 3) whose last row reaches
// column 0 while rows 1 and 2 are diagonal-only: row starts 0, 1, 2, 0,
// which decrease. Column 0 is then walked through rows 1 and 2 as well.
func decreasingStart(rng *rand.Rand) (*Matrix, *BandMatrix, []int, []int) {
	d := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		d.Set(i, i, 8+rng.Float64())
	}
	v := rng.NormFloat64()
	d.Set(3, 0, v)
	d.Set(0, 3, v)
	b := NewBandMatrix(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j <= i; j++ {
			_ = b.Set(i, j, d.At(i, j))
		}
	}
	return d, b, []int{0, 1, 2, 0}, []int{0, 4}
}

// factorPair factors b twice: inside the envelope of first (its packed
// storage poisoned with NaN beforehand, so any read outside the envelope
// shows) and over the full uniform band.
func factorPair(t *testing.T, b *BandMatrix, first []int) (*BandCholesky, *BandCholesky) {
	t.Helper()
	env, err := NewEnvelope(first)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := NewBandCholesky(b.Bandwidth(), env)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFullBand(t, b.N(), b.Bandwidth())
	for i := range ec.l {
		ec.l[i] = math.NaN()
	}
	for i := range ec.lt {
		ec.lt[i] = math.NaN()
	}
	if err := ec.Factorize(b); err != nil {
		t.Fatalf("envelope factorization: %v", err)
	}
	if err := fc.Factorize(b); err != nil {
		t.Fatalf("full-band factorization: %v", err)
	}
	return ec, fc
}

// TestEnvelopeKernelsMatchDense checks the envelope Factorize, Solve and
// InverseBlock against a dense Cholesky and a dense inverse on random
// block-diagonal horizon-shaped bands — mixed block widths, width-1
// blocks, a one-step horizon, bw = 2 (the unrolled kernels on the full
// band) and a factor large enough for the transposed back-substitution
// copy — and bitwise against the same kernels over the full uniform band:
// the entries the envelope skips are exact zeros. The decreasing-start
// case covers a row start right of an earlier row's.
func TestEnvelopeKernelsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var wide []int // n = 315, bw = 6: just over ltThreshold
	for len(wide) < 30 {
		wide = append(wide, 6, 1, 3, 5, 2, 4)
	}
	for _, tc := range []struct {
		name   string
		widths []int
		w      int
		build  func(*rand.Rand) (*Matrix, *BandMatrix, []int, []int)
	}{
		{"mixed", []int{3, 1, 4, 2, 4, 1}, 3, nil},
		{"width-1", []int{1, 1, 1, 1}, 4, nil},
		{"W=1", []int{2, 4, 1, 3}, 1, nil},
		{"one-block", []int{5}, 3, nil},
		{"bw2", []int{2, 1, 2, 2}, 3, nil},
		{"transposed-copy", wide, 3, nil},
		{"decreasing-start", []int{4}, 1, decreasingStart},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d *Matrix
			var b *BandMatrix
			var first, bnd []int
			if tc.build != nil {
				d, b, first, bnd = tc.build(rng)
			} else {
				d, b, first, bnd = horizonBlocks(rng, tc.widths, tc.w)
			}
			n := d.Rows()
			ec, fc := factorPair(t, b, first)
			if tc.name == "transposed-copy" && !ec.useLT {
				t.Fatalf("n=%d bw=%d stays below the transposed-copy threshold", n, b.Bandwidth())
			}
			dense, err := NewCholesky(d)
			if err != nil {
				t.Fatal(err)
			}
			rhs, want, got, full := NewVector(n), NewVector(n), NewVector(n), NewVector(n)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			if err := dense.Solve(rhs, want); err != nil {
				t.Fatal(err)
			}
			if err := ec.Solve(rhs, got); err != nil {
				t.Fatal(err)
			}
			if err := fc.Solve(rhs, full); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("x[%d]: envelope %g, dense %g", i, got[i], want[i])
				}
				if got[i] != full[i] {
					t.Fatalf("x[%d]: envelope %v, full band %v", i, got[i], full[i])
				}
			}
			e, col := NewVector(n), NewVector(n)
			for v := range tc.widths {
				lo, size := bnd[v], bnd[v+1]-bnd[v]
				z, zf := make([]float64, size*size), make([]float64, size*size)
				if err := ec.InverseBlock(lo, size, z); err != nil {
					t.Fatal(err)
				}
				if err := fc.InverseBlock(lo, size, zf); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < size; j++ {
					e.Zero()
					e[lo+j] = 1
					if err := dense.Solve(e, col); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < size; i++ {
						if zij := z[i*size+j]; math.Abs(zij-col[lo+i]) > 1e-14 || zij != zf[i*size+j] {
							t.Fatalf("block %d: Z(%d,%d) = %v, full band %v, dense %v", v, i, j, zij, zf[i*size+j], col[lo+i])
						}
					}
				}
			}
		})
	}
}

// TestEnvelopeValidation: an envelope row may not start right of its
// diagonal or left of column 0, nor reach past the band it is used with.
func TestEnvelopeValidation(t *testing.T) {
	for _, first := range [][]int{{0, 2, 1}, {0, -1, 2}} {
		if _, err := NewEnvelope(first); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("first %v: err = %v", first, err)
		}
	}
	env, err := NewEnvelope([]int{0, 0, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(env.Bandwidth(), env.Last(0), env.Last(2), env.Last(3)); got != "2 2 2 3" {
		t.Fatalf("bandwidth, last(0), last(2), last(3) = %s", got)
	}
	// Decreasing starts widen to their suffix minimum.
	first := []int{0, 1, 2, 0}
	if env, err = NewEnvelope(first); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(first, env.Bandwidth(), env.Last(0)); got != "[0 0 0 0] 3 3" {
		t.Fatalf("first, bandwidth, last(0) = %s", got)
	}
	if _, err := NewBandCholesky(1, env); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("envelope wider than the band: err = %v", err)
	}
}

// TestFullBand: FullBand(n, bw) is the envelope NewEnvelope builds from
// the starts max(0, i−bw), bw clamped into [0, n−1] — the same starts,
// lasts, bandwidth and fullness — down to n = 0 and n = 1 and for bands
// wider than the matrix.
func TestFullBand(t *testing.T) {
	for _, tc := range []struct {
		n, bw  int
		wantBW int
		last   string
	}{
		{0, 0, 0, "[]"},
		{0, 3, 0, "[]"},
		{1, 0, 0, "[0]"},
		{1, 4, 0, "[0]"},
		{4, 0, 0, "[0 1 2 3]"},
		{4, 1, 1, "[1 2 3 3]"},
		{5, 2, 2, "[2 3 4 4 4]"},
		{5, 4, 4, "[4 4 4 4 4]"},
		{5, 9, 4, "[4 4 4 4 4]"},
	} {
		got := FullBand(tc.n, tc.bw)
		first := make([]int, tc.n)
		for i := range first {
			first[i] = max(0, i-tc.bw)
		}
		want, err := NewEnvelope(first)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FullBand(%d, %d) = %+v, NewEnvelope of its starts %+v", tc.n, tc.bw, *got, *want)
		}
		if got.N() != tc.n || got.Bandwidth() != tc.wantBW || !got.full || fmt.Sprint(got.last) != tc.last {
			t.Errorf("FullBand(%d, %d): n %d, bandwidth %d, full %v, last %v; want %d, %d, true, %s",
				tc.n, tc.bw, got.N(), got.Bandwidth(), got.full, got.last, tc.n, tc.wantBW, tc.last)
		}
	}
}
