package linalg

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// MatrixFromRows builds a matrix from row slices. All rows must have
// equal length.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("row %d has %d cols, want %d: %w", i, len(r), cols, ErrDimensionMismatch)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g, want 3", m.At(1, 0))
	}
	if _, err := MatrixFromRows([][]float64{{1}, {2, 3}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged rows err = %v", err)
	}
	empty, err := MatrixFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Errorf("empty: %v rows=%d", err, empty.Rows())
	}
}

func TestNewMatrixNegativeDims(t *testing.T) {
	m := NewMatrix(-3, -4)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Errorf("negative dims gave %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

// mulVec computes y = M·x, the dense product the band and sparse
// products and the factorizations' residuals are checked with.
func (m *Matrix) mulVec(x, y Vector) {
	for i := 0; i < m.rows; i++ {
		y[i] = DotProd(m.data[i*m.cols:(i+1)*m.cols], x)
	}
}

func TestMatrixMulVec(t *testing.T) {
	m, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	yt := NewVector(2)
	if err := m.MulVecT(VectorOf(1, 1, 1), yt); err != nil {
		t.Fatal(err)
	}
	if yt[0] != 9 || yt[1] != 12 {
		t.Errorf("MulVecT = %v", yt)
	}
	if err := m.MulVecT(VectorOf(1), yt); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("MulVecT mismatch err = %v", err)
	}
}

// AtATWeighted must agree with the naive Gᵀ·diag(w)·G computation.
func TestAtATWeightedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		g := randMatrix(rng, rows, cols)
		w := NewVector(rows)
		for i := range w {
			w[i] = rng.Float64() * 3
		}
		got := NewMatrix(cols, cols)
		if err := g.AtATWeighted(w, got); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				var want float64
				for r := 0; r < rows; r++ {
					want += g.At(r, i) * w[r] * g.At(r, j)
				}
				if !almostEqual(got.At(i, j), want, 1e-10) {
					t.Fatalf("trial %d: (%d,%d) got %g want %g",
						trial, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestAtATWeightedAccumulates(t *testing.T) {
	g, _ := MatrixFromRows([][]float64{{1, 0}, {0, 1}})
	dst, _ := MatrixFromRows([][]float64{{10, 0}, {0, 10}})
	w := VectorOf(1, 1)
	if err := g.AtATWeighted(w, dst); err != nil {
		t.Fatal(err)
	}
	if dst.At(0, 0) != 11 {
		t.Errorf("accumulation lost existing contents: %g", dst.At(0, 0))
	}
}
