package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
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

// fullBandCase draws a random SPD matrix over the whole band of
// half-bandwidth bw: one block, every row starting at max(0, i−bw).
func fullBandCase(bw int) func(*rand.Rand) (*Matrix, *BandMatrix, []int, []int) {
	return func(rng *rand.Rand) (*Matrix, *BandMatrix, []int, []int) {
		n := 3*bw + 4
		d, b := randBandSPD(rng, n, bw)
		first := make([]int, n)
		for i := range first {
			first[i] = max(0, i-bw)
		}
		return d, b, first, []int{0, n}
	}
}

// factorPair lays out two factors of b over the envelope of first, their
// packed storage poisoned with NaN so any entry left unwritten, or read
// before it is written, shows. It factors b into the first with Factorize
// (the straight-line kernels for bandwidths 2…maxKernelBW) and into the
// second with the envelope loop alone, the reference, and returns both
// and their errors.
func factorPair(t *testing.T, b *BandMatrix, first []int) (kc, rc *BandCholesky, kerr, rerr error) {
	t.Helper()
	env, err := NewEnvelope(slices.Clone(first))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []**BandCholesky{&kc, &rc} {
		if *c, err = NewBandCholesky(b.Bandwidth(), env); err != nil {
			t.Fatal(err)
		}
		for _, buf := range [][]float64{(*c).l, (*c).dinv} {
			for i := range buf {
				buf[i] = math.NaN()
			}
		}
	}
	kerr = kc.Factorize(b)
	rerr = rc.factorizeEnvelope(b.data)
	return kc, rc, kerr, rerr
}

// sameFactor checks two factors bit for bit: every band entry inside the
// matrix, which is the envelope plus the padding (exact +0 bits), and
// dinv.
func sameFactor(t *testing.T, kc, rc *BandCholesky) {
	t.Helper()
	n, bw, first := kc.n, kc.bw, kc.env.first
	for i := 0; i < n; i++ {
		for j := max(0, i-bw); j <= i; j++ {
			k := i*(bw+1) + j - i + bw
			kv, rv := kc.l[k], rc.l[k]
			if math.Float64bits(kv) != math.Float64bits(rv) {
				t.Fatalf("L(%d,%d): kernel %v, envelope loop %v", i, j, kv, rv)
			}
			if j < first[i] && math.Float64bits(kv) != 0 {
				t.Fatalf("padding L(%d,%d) = %v, want +0", i, j, kv)
			}
		}
		if math.Float64bits(kc.dinv[i]) != math.Float64bits(rc.dinv[i]) {
			t.Fatalf("dinv[%d]: kernel %v, envelope loop %v", i, kc.dinv[i], rc.dinv[i])
		}
	}
}

// TestEnvelopeKernelsMatchDense checks Factorize, Solve and InverseBlock
// against a dense Cholesky and a dense inverse on random block-diagonal
// horizon-shaped bands — mixed block widths, width-1 blocks, a one-step
// horizon, bw = 2 and a 315-row bw-6 factor — and, at bandwidths 1–9
// over mixed blocks and over the full band, bitwise against the envelope
// loops: the factor (kernel rows and padding) against factorizeEnvelope,
// the solve against solveEnvelope, each block inverse against
// inverseColumn, and, with a pivot made negative or NaN, the error (same
// pivot, same value). The decreasing-start case covers a row start right
// of an earlier row's.
func TestEnvelopeKernelsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var wide []int // n = 315, bw = 6
	for len(wide) < 30 {
		wide = append(wide, 6, 1, 3, 5, 2, 4)
	}
	type kernelCase struct {
		name   string
		widths []int
		w      int
		build  func(*rand.Rand) (*Matrix, *BandMatrix, []int, []int)
	}
	cases := []kernelCase{
		{"mixed", []int{3, 1, 4, 2, 4, 1}, 3, nil},
		{"width-1", []int{1, 1, 1, 1}, 4, nil},
		{"W=1", []int{2, 4, 1, 3}, 1, nil},
		{"one-block", []int{5}, 3, nil},
		{"bw2", []int{2, 1, 2, 2}, 3, nil},
		{"n315-bw6", wide, 3, nil},
		{"decreasing-start", nil, 0, decreasingStart},
	}
	for bw := 1; bw <= maxKernelBW+1; bw++ {
		cases = append(cases,
			kernelCase{fmt.Sprintf("bw%d-blocks", bw), []int{bw, 1, max(1, bw-1), bw, min(2, bw), (bw + 1) / 2}, 3, nil},
			kernelCase{fmt.Sprintf("bw%d-full", bw), nil, 0, fullBandCase(bw)})
	}
	for _, tc := range cases {
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
			kc, rc, kerr, rerr := factorPair(t, b, first)
			if kerr != nil || rerr != nil {
				t.Fatalf("factorization: kernel %v, envelope loop %v", kerr, rerr)
			}
			sameFactor(t, kc, rc)
			dense, err := NewCholesky(d)
			if err != nil {
				t.Fatal(err)
			}
			rhs, want, got, ref := NewVector(n), NewVector(n), NewVector(n), NewVector(n)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			if err := dense.Solve(rhs, want); err != nil {
				t.Fatal(err)
			}
			if err := kc.Solve(rhs, got); err != nil {
				t.Fatal(err)
			}
			rc.solveEnvelope(rhs, ref)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("x[%d]: band %g, dense %g", i, got[i], want[i])
				}
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("x[%d]: Solve %v, envelope loop %v", i, got[i], ref[i])
				}
			}
			e, col := NewVector(n), NewVector(n)
			for v := 0; v+1 < len(bnd); v++ {
				lo, size := bnd[v], bnd[v+1]-bnd[v]
				z, zr := make([]float64, size*size), make([]float64, size*size)
				if err := kc.InverseBlock(lo, size, z); err != nil {
					t.Fatal(err)
				}
				for j := size - 1; j >= 0; j-- {
					rc.inverseColumn(lo, size, j, min(rc.env.Last(lo+j)-lo, size-1), zr)
				}
				for j := 0; j < size; j++ {
					e.Zero()
					e[lo+j] = 1
					if err := dense.Solve(e, col); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < size; i++ {
						zij := z[i*size+j]
						if math.Abs(zij-col[lo+i]) > 1e-14 || math.Float64bits(zij) != math.Float64bits(zr[i*size+j]) {
							t.Fatalf("block %d: Z(%d,%d) = %v, envelope loop %v, dense %v", v, i, j, zij, zr[i*size+j], col[lo+i])
						}
					}
				}
			}
			// A pivot that is not positive fails both paths at its row
			// with the same value: in the first row, the last of the
			// kernels' rows that start at column 0, the first of their
			// loop's rows and the last row.
			bw := b.Bandwidth()
			for _, r := range []int{0, max(bw-1, 0), min(bw, n-1), n - 1} {
				for _, v := range []float64{-1, math.NaN()} {
					bad := NewBandMatrix(n, bw)
					if err := bad.CopyFrom(b); err != nil {
						t.Fatal(err)
					}
					_ = bad.Set(r, r, v)
					_, _, kerr, rerr := factorPair(t, bad, first)
					if !errors.Is(kerr, ErrNotPositiveDefinite) || kerr.Error() != rerr.Error() ||
						!strings.HasPrefix(kerr.Error(), fmt.Sprintf("pivot %d = ", r)) {
						t.Fatalf("a(%d,%d) = %v: kernel %v, envelope loop %v", r, r, v, kerr, rerr)
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
// lasts and bandwidth — down to n = 0 and n = 1 and for bands wider than
// the matrix.
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
		if got.N() != tc.n || got.Bandwidth() != tc.wantBW || fmt.Sprint(got.last) != tc.last {
			t.Errorf("FullBand(%d, %d): n %d, bandwidth %d, last %v; want %d, %d, %s",
				tc.n, tc.bw, got.N(), got.Bandwidth(), got.last, tc.n, tc.wantBW, tc.last)
		}
	}
}

// shippedEnvelopes are the H_b envelopes of the shipped workloads, as
// location-block widths (pairs) over w steps in horizonBlocks' pattern:
// the paper instance dsppd serves (n 110, bw 4), one shard of the n120
// continental instance (n 188, bw 5) and the n120 instance whole (n 786,
// bw 6, 120 blocks).
var shippedEnvelopes = []struct {
	name   string
	w      int
	widths string
}{
	{"paper-n110-bw4", 5, "1 4 3 2 3 3 4 2"},
	{"n120-shard-n188-bw5", 2, "3 4 1 4 3 3 3 5 3 2 2 1 3 3 3 4 5 3 2 3 5 3 3 3 3 3 5 4 3 2"},
	{"n120-n786-bw6", 2, "4 4 2 6 2 2 3 5 4 3 3 1 1 5 2 4 2 6 4 1 5 3 4 4 3 4 3 3 2 2 " +
		"3 3 3 1 5 5 3 5 5 3 4 1 1 2 2 3 3 3 1 2 1 3 4 6 4 3 3 3 3 1 " +
		"3 3 3 4 1 4 4 5 3 6 4 1 2 2 3 5 6 4 2 3 2 1 6 1 3 5 3 3 6 3 " +
		"2 3 3 3 5 3 1 3 3 3 2 5 4 5 4 3 6 5 4 5 3 2 5 2 2 4 6 3 6 1"},
}

// BenchmarkBandKernels times Factorize, InverseBlock (every block
// inverted once per op), Solve and the symmetric MulVec on the shipped
// H_b envelopes, with allocation reporting (all must be zero).
func BenchmarkBandKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range shippedEnvelopes {
		var widths []int
		for _, f := range strings.Fields(sh.widths) {
			p, err := strconv.Atoi(f)
			if err != nil {
				b.Fatal(err)
			}
			widths = append(widths, p)
		}
		_, bm, first, bnd := horizonBlocks(rng, widths, sh.w)
		env, err := NewEnvelope(first)
		if err != nil {
			b.Fatal(err)
		}
		c, err := NewBandCholesky(bm.Bandwidth(), env)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Factorize(bm); err != nil {
			b.Fatal(err)
		}
		widest := slices.Max(widths) * sh.w
		z := make([]float64, widest*widest)
		b.Run("Factorize/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Factorize(bm); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("InverseBlock/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for v := 0; v+1 < len(bnd); v++ {
					if err := c.InverseBlock(bnd[v], bnd[v+1]-bnd[v], z); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		rhs, x := NewVector(bm.N()), NewVector(bm.N())
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		b.Run("Solve/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Solve(rhs, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("MulVec/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bm.MulVec(rhs, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
