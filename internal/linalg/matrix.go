package linalg

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
// Negative dimensions are treated as zero.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the (i, j) entry.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the (i, j) entry.
func (m *Matrix) Set(i, j int, x float64) { m.data[i*m.cols+j] = x }

// Inc adds x to the (i, j) entry.
func (m *Matrix) Inc(i, j int, x float64) { m.data[i*m.cols+j] += x }

// MulVecT computes y = Mᵀ x without forming the transpose.
// The output y must have length m.Cols() and x length m.Rows().
func (m *Matrix) MulVecT(x Vector, y Vector) error {
	if len(x) != m.rows || len(y) != m.cols {
		return fmt.Errorf("mulvecT (%dx%d)ᵀ·%d into %d: %w", m.rows, m.cols, len(x), len(y), ErrDimensionMismatch)
	}
	y.Zero()
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range ri {
			y[j] += a * xi
		}
	}
	return nil
}

// AtATWeighted accumulates into dst the product Gᵀ·diag(w)·G, where G is m.
// dst must be square with size m.Cols(). Existing contents of dst are kept
// (the product is added), enabling Q + GᵀWG assembly without temporaries.
// LeastSquares forms its normal equations with it, and tests check
// SparseMatrix.AtATWeightedBand against it.
func (m *Matrix) AtATWeighted(w Vector, dst *Matrix) error {
	if len(w) != m.rows || dst.rows != m.cols || dst.cols != m.cols {
		return fmt.Errorf("gtwg (%dx%d), w=%d, dst=(%dx%d): %w",
			m.rows, m.cols, len(w), dst.rows, dst.cols, ErrDimensionMismatch)
	}
	n := m.cols
	for r := 0; r < m.rows; r++ {
		wr := w[r]
		if wr == 0 {
			continue
		}
		row := m.data[r*n : (r+1)*n]
		for i := 0; i < n; i++ {
			gi := row[i]
			if gi == 0 {
				continue
			}
			f := wr * gi
			di := dst.data[i*n : (i+1)*n]
			// Only the upper triangle is accumulated; mirrored below.
			for j := i; j < n; j++ {
				di[j] += f * row[j]
			}
		}
	}
	// Mirror upper triangle to lower.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.data[j*n+i] = dst.data[i*n+j]
		}
	}
	return nil
}
