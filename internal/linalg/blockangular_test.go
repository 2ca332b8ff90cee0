package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestInverseBlock: on a block-diagonal band matrix, the inverse of one
// diagonal block read off the factor matches the solves of the block's
// unit vectors.
func TestInverseBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, tc := range []struct{ blocks, size, bw int }{{5, 7, 3}, {1, 9, 8}, {3, 4, 0}, {4, 30, 2}} {
		n := tc.blocks * tc.size
		a := NewBandMatrix(n, tc.bw)
		for i := 0; i < n; i++ {
			_ = a.Set(i, i, float64(2*tc.bw+2))
			for j := max(i-tc.bw, i-i%tc.size); j < i; j++ {
				_ = a.Set(i, j, rng.Float64()-0.5)
			}
		}
		chol := newFullBand(t, n, tc.bw)
		if err := chol.Factorize(a); err != nil {
			t.Fatal(err)
		}
		lo := (tc.blocks / 2) * tc.size
		z := make([]float64, tc.size*tc.size)
		if err := chol.InverseBlock(lo, tc.size, z); err != nil {
			t.Fatal(err)
		}
		e := NewVector(n)
		col := NewVector(n)
		for j := 0; j < tc.size; j++ {
			e.Zero()
			e[lo+j] = 1
			if err := chol.Solve(e, col); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.size; i++ {
				if d := math.Abs(z[i*tc.size+j] - col[lo+i]); d > 1e-13 {
					t.Fatalf("%+v: Z(%d,%d) = %v, solve gives %v", tc, i, j, z[i*tc.size+j], col[lo+i])
				}
			}
		}
		if err := chol.InverseBlock(n-2, tc.size+2, z); !errors.Is(err, ErrDimensionMismatch) {
			t.Fatalf("block past the end: err = %v", err)
		}
	}
}

// TestAtATWeightedBandSkipsZeroWeightRows: a row wider than the band
// is allowed when its weight is zero (a linking row), and rejected
// otherwise.
func TestAtATWeightedBandSkipsZeroWeightRows(t *testing.T) {
	b := NewSparseBuilder(3, 6, 0)
	b.StartRow()
	b.Add(0, 1)
	b.Add(1, 2)
	b.StartRow()
	b.Add(0, 1)
	b.Add(5, 1) // spans the whole matrix
	b.StartRow()
	b.Add(4, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewBandMatrix(6, 1)
	if err := g.AtATWeightedBand(VectorOf(1, 0, 2), dst); err != nil {
		t.Fatalf("zero-weight wide row: %v", err)
	}
	if dst.At(0, 0) != 1 || dst.At(1, 0) != 2 || dst.At(1, 1) != 4 || dst.At(4, 4) != 18 || dst.At(5, 5) != 0 {
		t.Fatalf("accumulated band %v", dst.Packed())
	}
	if err := g.AtATWeightedBand(VectorOf(1, 1, 2), NewBandMatrix(6, 1)); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("weighted wide row: err = %v", err)
	}
}
