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
	"math"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector backed by a []float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Fill sets every entry of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every entry of v to 0.
func (v Vector) Zero() { v.Fill(0) }

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
