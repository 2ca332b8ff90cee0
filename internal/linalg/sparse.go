package linalg

import (
	"fmt"
	"sort"
)

// SparseMatrix is an immutable compressed-sparse-row (CSR) matrix. Rows
// with few nonzeros — such as the prefix-sum constraint rows of the
// horizon QP, which touch at most e·(t+1) of the e·W columns — make its
// products nnz-proportional instead of dimension-proportional.
type SparseMatrix struct {
	rows, cols int
	rowPtr     []int // len rows+1; row i occupies [rowPtr[i], rowPtr[i+1])
	colIdx     []int
	vals       []float64
	// CSC mirror, built once on Build: transpose products then gather
	// along contiguous column runs (accumulating in a register) instead of
	// scattering read-modify-writes across the output.
	colPtr  []int // len cols+1; column j occupies [colPtr[j], colPtr[j+1])
	rowIdxT []int
	valsT   []float64
	gramBW  int // cached GramBandwidth
}

// SparseBuilder assembles a SparseMatrix row by row. Entries within a row
// may be added in any column order (they are sorted on Build); adding the
// same column twice within a row is an error surfaced by Build.
type SparseBuilder struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
	err        error
}

// NewSparseBuilder starts a builder for a rows×cols matrix. nnzHint
// preallocates entry storage (0 is fine).
func NewSparseBuilder(rows, cols, nnzHint int) *SparseBuilder {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	if nnzHint < 0 {
		nnzHint = 0
	}
	return &SparseBuilder{
		rows:   rows,
		cols:   cols,
		rowPtr: append(make([]int, 0, rows+1), 0),
		colIdx: make([]int, 0, nnzHint),
		vals:   make([]float64, 0, nnzHint),
	}
}

// StartRow finishes the current row and begins the next. Every row must be
// started, in order, before Build; rows may be empty.
func (b *SparseBuilder) StartRow() {
	if len(b.rowPtr) > b.rows {
		b.setErr(fmt.Errorf("row %d of %d: %w", len(b.rowPtr), b.rows, ErrDimensionMismatch))
		return
	}
	b.rowPtr = append(b.rowPtr, len(b.colIdx))
}

// Add appends a nonzero entry to the current row. Zero values are kept
// (callers filter if they care); out-of-range columns fail the Build.
func (b *SparseBuilder) Add(col int, v float64) {
	if len(b.rowPtr) < 2 {
		b.setErr(fmt.Errorf("entry before first StartRow: %w", ErrDimensionMismatch))
		return
	}
	if col < 0 || col >= b.cols {
		b.setErr(fmt.Errorf("column %d of %d: %w", col, b.cols, ErrDimensionMismatch))
		return
	}
	b.colIdx = append(b.colIdx, col)
	b.vals = append(b.vals, v)
	b.rowPtr[len(b.rowPtr)-1] = len(b.colIdx)
}

func (b *SparseBuilder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build finalizes the matrix: all rows must have been started, entries are
// sorted by column within each row, and duplicate columns are rejected.
func (b *SparseBuilder) Build() (*SparseMatrix, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.rowPtr) != b.rows+1 {
		return nil, fmt.Errorf("built %d of %d rows: %w", len(b.rowPtr)-1, b.rows, ErrDimensionMismatch)
	}
	m := &SparseMatrix{rows: b.rows, cols: b.cols, rowPtr: b.rowPtr, colIdx: b.colIdx, vals: b.vals}
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		cols := m.colIdx[lo:hi]
		vals := m.vals[lo:hi]
		if !sort.IntsAreSorted(cols) {
			sort.Sort(&rowSorter{cols: cols, vals: vals})
		}
		for k := 1; k < len(cols); k++ {
			if cols[k] == cols[k-1] {
				return nil, fmt.Errorf("row %d has duplicate column %d: %w", i, cols[k], ErrDimensionMismatch)
			}
		}
		if n := hi - lo; n > 0 {
			if d := cols[n-1] - cols[0]; d > m.gramBW {
				m.gramBW = d
			}
		}
	}
	// CSC mirror via counting sort; rows within a column come out ascending.
	nnz := len(m.vals)
	m.colPtr = make([]int, m.cols+1)
	for _, c := range m.colIdx {
		m.colPtr[c+1]++
	}
	for j := 0; j < m.cols; j++ {
		m.colPtr[j+1] += m.colPtr[j]
	}
	m.rowIdxT = make([]int, nnz)
	m.valsT = make([]float64, nnz)
	next := append([]int(nil), m.colPtr...)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			p := next[m.colIdx[k]]
			m.rowIdxT[p] = i
			m.valsT[p] = m.vals[k]
			next[m.colIdx[k]]++
		}
	}
	return m, nil
}

type rowSorter struct {
	cols []int
	vals []float64
}

func (r *rowSorter) Len() int           { return len(r.cols) }
func (r *rowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r *rowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// ToDense materializes the matrix densely (for tests and debugging).
func (m *SparseMatrix) ToDense() *Matrix {
	d := NewMatrix(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}

// Rows returns the number of rows.
func (m *SparseMatrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *SparseMatrix) Cols() int { return m.cols }

// At returns the (i, j) entry by binary search within row i.
func (m *SparseMatrix) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.colIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.vals[lo+k]
	}
	return 0
}

// MulVec computes y = M x in O(nnz).
func (m *SparseMatrix) MulVec(x Vector, y Vector) error {
	if len(x) != m.cols || len(y) != m.rows {
		return fmt.Errorf("sparse mulvec (%dx%d)·%d into %d: %w", m.rows, m.cols, len(x), len(y), ErrDimensionMismatch)
	}
	rowPtr, colIdx, vals := m.rowPtr, m.colIdx, m.vals
	for i := range y {
		lo, hi := rowPtr[i], rowPtr[i+1]
		var s float64
		// Constraint rows in the horizon QP carry one or two nonzeros
		// (bound rows and per-period capacity rows); dispatching on the
		// count replaces the slice setup with direct loads. Accumulation
		// order (ascending k) matches the general loop bit for bit. The
		// short-row dispatches here, in MulVecT and in AtATWeightedBand
		// are kept by measurement: deleting them with the bw-2 band
		// kernels cost game-fig7 p50 121.4 → 132.9 ms and work
		// 13.28 → 14.77 s (DESIGN.md §9).
		switch hi - lo {
		case 1:
			s += vals[lo] * x[colIdx[lo]]
		case 2:
			s += vals[lo] * x[colIdx[lo]]
			s += vals[lo+1] * x[colIdx[lo+1]]
		default:
			for k := lo; k < hi; k++ {
				s += vals[k] * x[colIdx[k]]
			}
		}
		y[i] = s
	}
	return nil
}

// MulVecT computes y = Mᵀ x in O(nnz) off the CSC mirror.
func (m *SparseMatrix) MulVecT(x Vector, y Vector) error {
	if len(x) != m.rows || len(y) != m.cols {
		return fmt.Errorf("sparse mulvecT (%dx%d)ᵀ·%d into %d: %w", m.rows, m.cols, len(x), len(y), ErrDimensionMismatch)
	}
	colPtr, rowIdxT, valsT := m.colPtr, m.rowIdxT, m.valsT
	for j := range y {
		lo, hi := colPtr[j], colPtr[j+1]
		var s float64
		// Columns of the horizon constraint matrix are short too (each
		// variable appears in a handful of rows); same dispatch, same
		// ascending-k accumulation order as the general loop, kept by the
		// same measurement as MulVec's.
		switch hi - lo {
		case 1:
			s += valsT[lo] * x[rowIdxT[lo]]
		case 2:
			s += valsT[lo] * x[rowIdxT[lo]]
			s += valsT[lo+1] * x[rowIdxT[lo+1]]
		default:
			for k := lo; k < hi; k++ {
				s += valsT[k] * x[rowIdxT[k]]
			}
		}
		y[j] = s
	}
	return nil
}

// AtATWeightedBand accumulates Gᵀ·diag(w)·G into the packed band matrix
// dst in O(Σᵢ nnzᵢ²), writing only the lower band (dst is symmetric by
// representation, so no mirroring pass is needed). Rows with zero weight
// are skipped; every other row's columns must span at most dst's band.
// When the whole Gram band fits, no row is checked.
func (m *SparseMatrix) AtATWeightedBand(w Vector, dst *BandMatrix) error {
	if len(w) != m.rows || dst.N() != m.cols {
		return fmt.Errorf("sparse gtwg band (%dx%d), w=%d, dst n=%d: %w",
			m.rows, m.cols, len(w), dst.N(), ErrDimensionMismatch)
	}
	bw := dst.Bandwidth()
	if m.gramBW > bw {
		// Some row is wider than the band: only zero-weight rows may be.
		for r := 0; r < m.rows; r++ {
			lo, hi := m.rowPtr[r], m.rowPtr[r+1]
			if w[r] != 0 && hi-lo > 1 && m.colIdx[hi-1]-m.colIdx[lo] > bw {
				return fmt.Errorf("sparse gtwg band: row %d spans %d columns, band %d: %w",
					r, m.colIdx[hi-1]-m.colIdx[lo], bw, ErrDimensionMismatch)
			}
		}
	}
	dd := dst.data
	for r := 0; r < m.rows; r++ {
		wr := w[r]
		if wr == 0 {
			continue
		}
		lo, hi := m.rowPtr[r], m.rowPtr[r+1]
		// Short rows — the dominant case in the horizon QP's constraint
		// blocks — skip the slice setup and loop machinery entirely. The
		// f == 0 guards and the update order match the general path, so the
		// accumulated band is bit-identical. Kept by the same measurement
		// as MulVec's dispatch.
		if hi-lo == 1 {
			c0, v0 := m.colIdx[lo], m.vals[lo]
			if f := wr * v0; f != 0 {
				dd[c0*bw+bw+c0] += f * v0
			}
			continue
		}
		if hi-lo == 2 {
			c0, v0 := m.colIdx[lo], m.vals[lo]
			c1, v1 := m.colIdx[lo+1], m.vals[lo+1]
			if f := wr * v0; f != 0 {
				dd[c0*bw+bw+c0] += f * v0
			}
			if f := wr * v1; f != 0 {
				base := c1*bw + bw
				dd[base+c0] += f * v0
				dd[base+c1] += f * v1
			}
			continue
		}
		cols := m.colIdx[lo:hi]
		vals := m.vals[lo:hi]
		// Columns are sorted: fix the larger index cj = cols[b] (the band
		// row) and sweep the smaller ones, so each inner loop writes one
		// contiguous run of the packed row — addressed directly into the
		// packed storage (entry (cj, ca) lives at cj·bw + bw + ca).
		for b, cj := range cols {
			f := wr * vals[b]
			if f == 0 {
				continue
			}
			base := cj*bw + bw
			for a := 0; a <= b; a++ {
				dd[base+cols[a]] += f * vals[a]
			}
		}
	}
	return nil
}

// RowEntries returns row i's stored columns (ascending) and values. The
// slices alias the matrix and must not be modified.
func (m *SparseMatrix) RowEntries(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi:hi], m.vals[lo:hi:hi]
}

// GramBandwidth returns the half-bandwidth of the weighted Gram product
// AᵀDA for any diagonal D: the widest column spread of any row (columns
// i and j only meet in the Gram matrix when some row holds both). Rows
// confined to narrow column blocks — the state-space horizon QP — yield
// a banded Gram matrix, which the QP solver factorizes in O(n·bw²).
func (m *SparseMatrix) GramBandwidth() int { return m.gramBW }
