// Package linalg provides the linear-algebra kernels of the DSPP
// reproduction. The interior-point QP solver (package qp) runs on packed
// symmetric band matrices (BandMatrix), CSR constraint matrices
// (SparseMatrix) and the envelope band Cholesky (BandCholesky) with its
// unrolled small-band kernels. Dense matrices and the dense Cholesky serve
// the AR predictor's least squares (package predict); they and the dense
// Matrix.AtATWeighted are also the references the band kernels are tested
// against.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement, with clear error reporting instead of panics
// on dimension mismatches in the exported API.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector backed by a []float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every entry of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every entry of v to 0.
func (v Vector) Zero() { v.Fill(0) }

// Add stores a+b into v. All lengths must match.
func (v Vector) Add(a, b Vector) error {
	if len(a) != len(b) || len(v) != len(a) {
		return fmt.Errorf("add %d+%d into %d: %w", len(a), len(b), len(v), ErrDimensionMismatch)
	}
	for i := range v {
		v[i] = a[i] + b[i]
	}
	return nil
}

// AXPY computes v += alpha*x in place.
func (v Vector) AXPY(alpha float64, x Vector) error {
	if len(v) != len(x) {
		return fmt.Errorf("axpy %d into %d: %w", len(x), len(v), ErrDimensionMismatch)
	}
	for i := range v {
		v[i] += alpha * x[i]
	}
	return nil
}

// Scale multiplies every entry of v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dot %d·%d: %w", len(a), len(b), ErrDimensionMismatch)
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// NormInf returns the maximum absolute entry of v (0 for an empty vector).
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
