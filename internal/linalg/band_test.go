package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randBandSPD builds a random symmetric positive-definite matrix with the
// given half-bandwidth, returned both dense and packed.
func randBandSPD(rng *rand.Rand, n, bw int) (*Matrix, *BandMatrix) {
	d := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			v := rng.NormFloat64()
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
		// Diagonal dominance keeps it SPD for any band content.
		d.Set(i, i, float64(2*bw+2)+rng.Float64())
	}
	b := NewBandMatrix(n, bw)
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= i; j++ {
			if err := b.Set(i, j, d.At(i, j)); err != nil {
				panic(err)
			}
		}
	}
	return d, b
}

func TestBandMatrixAccessors(t *testing.T) {
	b := NewBandMatrix(5, 2)
	if err := b.Set(3, 1, 7); err != nil {
		t.Fatal(err)
	}
	if got := b.At(3, 1); got != 7 {
		t.Fatalf("At(3,1) = %g, want 7", got)
	}
	if got := b.At(1, 3); got != 7 {
		t.Fatalf("symmetric At(1,3) = %g, want 7", got)
	}
	if got := b.At(0, 4); got != 0 {
		t.Fatalf("out-of-band At(0,4) = %g, want 0", got)
	}
	if err := b.Set(0, 4, 1); err == nil {
		t.Fatal("Set outside the band should fail")
	}
	// A negative index must not land in the padding of a low row.
	p := NewBandMatrix(4, 2)
	for _, ij := range [][2]int{{0, -1}, {1, -1}, {-1, 0}, {-1, -1}} {
		if err := p.Set(ij[0], ij[1], 7); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("Set(%d,%d) err = %v, want ErrDimensionMismatch", ij[0], ij[1], err)
		}
		if err := p.Inc(ij[0], ij[1], 9); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("Inc(%d,%d) err = %v, want ErrDimensionMismatch", ij[0], ij[1], err)
		}
	}
	for k, v := range p.Packed() {
		if v != 0 {
			t.Fatalf("rejected writes changed packed[%d] to %g", k, v)
		}
	}
	if err := b.Inc(3, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.At(3, 1); got != 8 {
		t.Fatalf("after Inc At(3,1) = %g, want 8", got)
	}
	b.AddDiag(2)
	if got := b.At(2, 2); got != 2 {
		t.Fatalf("after AddDiag At(2,2) = %g, want 2", got)
	}
	d, packed := randBandSPD(rand.New(rand.NewSource(19)), 12, 3)
	got := packed.ToDense()
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if got.At(i, j) != d.At(i, j) {
				t.Fatalf("ToDense(%d,%d): %g, want %g", i, j, got.At(i, j), d.At(i, j))
			}
		}
	}
}

// TestBandCholeskyMatchesDense cross-checks the packed band factorization
// against the dense Cholesky across shapes, including bw=0 (diagonal),
// bw=n−1 (effectively dense), and rectangular-ish tall bands.
func TestBandCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sz := range []struct{ n, bw int }{
		{1, 0}, {2, 1}, {5, 0}, {5, 2}, {8, 7}, {17, 3}, {40, 6}, {60, 59},
	} {
		t.Run(fmt.Sprintf("n%d_bw%d", sz.n, sz.bw), func(t *testing.T) {
			d, b := randBandSPD(rng, sz.n, sz.bw)
			dense, err := NewCholesky(d)
			if err != nil {
				t.Fatal(err)
			}
			band := newFullBand(t, sz.n, sz.bw)
			if err := band.Factorize(b); err != nil {
				t.Fatal(err)
			}
			rhs := NewVector(sz.n)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			want := NewVector(sz.n)
			if err := dense.Solve(rhs, want); err != nil {
				t.Fatal(err)
			}
			got := NewVector(sz.n)
			if err := band.Solve(rhs, got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("x[%d]: band %g vs dense %g", i, got[i], want[i])
				}
			}
		})
	}
}

// newFullBand lays out a factor over the full band of order n and
// half-bandwidth bw.
func newFullBand(tb testing.TB, n, bw int) *BandCholesky {
	tb.Helper()
	c, err := NewBandCholesky(bw, FullBand(n, bw))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestBandCholeskyReuse refactorizes one BandCholesky as the values
// change in place, and refuses matrices of any other shape: the layout is
// fixed when the factor is made, and a refused Factorize leaves the last
// factor intact.
func TestBandCholeskyReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, bw = 30, 5
	c := newFullBand(t, n, bw)
	rhs, x, ax := NewVector(n), NewVector(n), NewVector(n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	// solves checks that c solves d x = rhs.
	solves := func(d *Matrix) {
		t.Helper()
		if err := c.Solve(rhs, x); err != nil {
			t.Fatal(err)
		}
		if err := d.MulVec(x, ax); err != nil {
			t.Fatal(err)
		}
		for i := range ax {
			if math.Abs(ax[i]-rhs[i]) > 1e-8*(1+math.Abs(rhs[i])) {
				t.Fatalf("(Ax)[%d] = %g, want %g", i, ax[i], rhs[i])
			}
		}
	}
	var d *Matrix
	for range 3 {
		var b *BandMatrix
		d, b = randBandSPD(rng, n, bw)
		if err := c.Factorize(b); err != nil {
			t.Fatal(err)
		}
		solves(d)
	}
	for _, sz := range []struct{ n, bw int }{{12, 2}, {30, 4}, {30, 6}, {31, 5}, {7, 6}} {
		_, b := randBandSPD(rng, sz.n, sz.bw)
		if err := c.Factorize(b); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("n=%d bw=%d into a factor for n=%d bw=%d: err = %v", sz.n, sz.bw, n, bw, err)
		}
		solves(d)
	}
}

func TestBandCholeskyNotPositiveDefinite(t *testing.T) {
	b := NewBandMatrix(3, 1)
	_ = b.Set(0, 0, 1)
	_ = b.Set(1, 1, -2)
	_ = b.Set(2, 2, 1)
	c := newFullBand(t, 3, 1)
	if err := c.Factorize(b); err == nil {
		t.Fatal("factorizing an indefinite matrix should fail")
	}
}

// TestBandFactorizeNoAlloc proves the numeric phase and the solves are
// allocation-free once the factor is laid out.
func TestBandFactorizeNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	_, b := randBandSPD(rng, 64, 8)
	c := newFullBand(t, 64, 8)
	rhs := NewVector(64)
	x := NewVector(64)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.Factorize(b); err != nil {
			t.Fatal(err)
		}
		if err := c.Solve(rhs, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("numeric factorize+solve allocates %g objects per run, want 0", allocs)
	}
}

func TestKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 3, 4, 7, 16, 33} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		var want float64
		for i := range x {
			want += x[i] * y[i]
		}
		if got := DotProd(x, y); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("DotProd n=%d: %g, want %g", n, got, want)
		}

		alpha := 0.37
		wantY := append([]float64(nil), y...)
		for i := range wantY {
			wantY[i] += alpha * x[i]
		}
		gotY := append([]float64(nil), y...)
		Axpy(alpha, x, gotY)
		for i := range wantY {
			if math.Abs(gotY[i]-wantY[i]) > 1e-12 {
				t.Fatalf("Axpy n=%d i=%d: %g, want %g", n, i, gotY[i], wantY[i])
			}
		}
	}
}

// BenchmarkKernels covers the fused kernels with allocation reporting:
// the hot loops of the solver must not allocate.
func BenchmarkKernels(b *testing.B) {
	const n = 256
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
		y[i] = float64(i%5) - 2
	}
	b.Run("DotProd", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			s += DotProd(x, y)
		}
		_ = s
	})
	b.Run("Axpy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Axpy(1e-9, x, y)
		}
	})
}

// BenchmarkBandCholesky measures the numeric refactorization + solve at
// horizon-QP-like shapes, with allocation reporting (must be zero).
func BenchmarkBandCholesky(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	for _, sz := range []struct{ n, bw int }{{48, 4}, {96, 8}, {240, 16}} {
		_, bm := randBandSPD(rng, sz.n, sz.bw)
		c := newFullBand(b, sz.n, sz.bw)
		rhs := NewVector(sz.n)
		x := NewVector(sz.n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		b.Run(fmt.Sprintf("n%d_bw%d", sz.n, sz.bw), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Factorize(bm); err != nil {
					b.Fatal(err)
				}
				if err := c.Solve(rhs, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
