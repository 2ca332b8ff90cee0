package linalg

import (
	"fmt"
	"math"
)

// BandMatrix is a symmetric matrix with half-bandwidth bw stored packed:
// only the lower band of each row is kept, row-major, bw+1 entries per
// row. Entry (i, j) with i−bw ≤ j ≤ i lives at data[i·(bw+1) + j−i+bw].
// Compared to a dense n×n buffer this cuts the KKT working set from
// O(n²) to O(n·bw) floats, which is what keeps the band factorization
// and triangular solves in cache for the horizon QP (n ≈ E·W, bw = the
// pairs of one location).
type BandMatrix struct {
	n, bw int
	data  []float64
}

// NewBandMatrix returns a zero band matrix of order n with half-bandwidth
// bw (clamped into [0, n−1]).
func NewBandMatrix(n, bw int) *BandMatrix {
	b := &BandMatrix{}
	b.Reset(n, bw)
	return b
}

// Reset re-shapes the matrix for a new (n, bw), reusing the backing
// storage when it is large enough — the symbolic half of the
// symbolic/numeric factorization split. The band is NOT cleared; callers
// that assemble incrementally must ZeroBand first.
func (b *BandMatrix) Reset(n, bw int) {
	if n < 0 {
		n = 0
	}
	if bw < 0 {
		bw = 0
	}
	if bw > n-1 {
		bw = n - 1
	}
	if n == 0 {
		bw = 0
	}
	need := n * (bw + 1)
	if cap(b.data) < need {
		b.data = make([]float64, need)
	}
	b.n, b.bw = n, bw
	b.data = b.data[:need]
}

// N returns the order of the matrix.
func (b *BandMatrix) N() int { return b.n }

// Rows returns the order of the matrix (it is square).
func (b *BandMatrix) Rows() int { return b.n }

// Cols returns the order of the matrix (it is square).
func (b *BandMatrix) Cols() int { return b.n }

// Bandwidth returns the half-bandwidth.
func (b *BandMatrix) Bandwidth() int { return b.bw }

// ZeroBand clears every stored entry.
func (b *BandMatrix) ZeroBand() {
	for i := range b.data {
		b.data[i] = 0
	}
}

// Row returns the packed storage of row i: bw+1 entries ending at the
// diagonal. Index j of row i (for i−bw ≤ j ≤ i) is at position j−i+bw.
func (b *BandMatrix) Row(i int) []float64 {
	w1 := b.bw + 1
	return b.data[i*w1 : (i+1)*w1 : (i+1)*w1]
}

// At returns entry (i, j), using symmetry for the upper triangle and
// zero outside the band.
func (b *BandMatrix) At(i, j int) float64 {
	if j > i {
		i, j = j, i
	}
	if i-j > b.bw {
		return 0
	}
	return b.data[i*(b.bw+1)+j-i+b.bw]
}

// Set stores v at (i, j) (and, by symmetry, (j, i)). Entries outside the
// band are rejected.
func (b *BandMatrix) Set(i, j int, v float64) error {
	if j > i {
		i, j = j, i
	}
	if i < 0 || i >= b.n || i-j > b.bw {
		return fmt.Errorf("band set (%d,%d) n=%d bw=%d: %w", i, j, b.n, b.bw, ErrDimensionMismatch)
	}
	b.data[i*(b.bw+1)+j-i+b.bw] = v
	return nil
}

// Inc adds v at (i, j) (and, by symmetry, (j, i)).
func (b *BandMatrix) Inc(i, j int, v float64) error {
	if j > i {
		i, j = j, i
	}
	if i < 0 || i >= b.n || i-j > b.bw {
		return fmt.Errorf("band inc (%d,%d) n=%d bw=%d: %w", i, j, b.n, b.bw, ErrDimensionMismatch)
	}
	b.data[i*(b.bw+1)+j-i+b.bw] += v
	return nil
}

// AddDiag adds v to every diagonal entry.
func (b *BandMatrix) AddDiag(v float64) {
	w1 := b.bw + 1
	for i := 0; i < b.n; i++ {
		b.data[i*w1+b.bw] += v
	}
}

// CopyLowerBand overwrites the band with the lower-band entries of the
// symmetric matrix a (entries of a outside the band are ignored — the
// caller guarantees they are zero, as the QP solver's band scan does for
// the KKT assembly).
func (b *BandMatrix) CopyLowerBand(a Symmetric) error {
	if a.Rows() != b.n || a.Cols() != b.n {
		return fmt.Errorf("band copy from (%dx%d), n=%d: %w", a.Rows(), a.Cols(), b.n, ErrDimensionMismatch)
	}
	w1 := b.bw + 1
	for i := 0; i < b.n; i++ {
		row := b.data[i*w1 : (i+1)*w1]
		for k := range row {
			j := i - b.bw + k
			if j < 0 {
				row[k] = 0
			} else {
				row[k] = a.At(i, j)
			}
		}
	}
	return nil
}

// CopyFrom overwrites the band with src's band. Shapes must match.
func (b *BandMatrix) CopyFrom(src *BandMatrix) error {
	if src.n != b.n || src.bw != b.bw {
		return fmt.Errorf("band copy from n=%d bw=%d into n=%d bw=%d: %w", src.n, src.bw, b.n, b.bw, ErrDimensionMismatch)
	}
	copy(b.data, src.data)
	return nil
}

// MulVec computes y = A·x for the symmetric band matrix, walking only
// the packed lower band (each off-diagonal entry is applied to both its
// row and its mirrored column). Per element of y the terms accumulate in
// ascending column order — the same association a dense band-limited
// row-times-vector product uses — so results are bit-identical to
// Matrix.MulVecBand on the materialized matrix.
func (b *BandMatrix) MulVec(x, y Vector) error {
	if len(x) != b.n || len(y) != b.n {
		return fmt.Errorf("band mulvec x=%d y=%d n=%d: %w", len(x), len(y), b.n, ErrDimensionMismatch)
	}
	w1 := b.bw + 1
	for i := range y {
		y[i] = 0
	}
	if b.bw == 2 {
		b.mulVecSymBW2(x, y)
		return nil
	}
	for i := 0; i < b.n; i++ {
		lo := i - b.bw
		if lo < 0 {
			lo = 0
		}
		row := b.data[i*w1+lo-i+b.bw : i*w1+w1]
		xi := x[i]
		var s float64
		off := row[:len(row)-1]
		xv := x[lo : lo+len(off)]
		for k, v := range off {
			s += v * xv[k]
			y[lo+k] += v * xi
		}
		s += row[len(row)-1] * xi
		y[i] += s
	}
	return nil
}

// mulVecSymBW2 is the bw = 2 product loop with the per-row slice setup
// unrolled away. The accumulate/scatter interleaving is identical to the
// generic loop's (s grows in ascending column order, each y element sees
// the same additions in the same order), so y is bit-identical. y must be
// zeroed by the caller.
func (b *BandMatrix) mulVecSymBW2(x, y Vector) {
	n := b.n // ≥ 3: Reset clamps bw ≤ n−1
	d := b.data
	s := d[2] * x[0]
	y[0] += s
	s = d[4] * x[0]
	y[0] += d[4] * x[1]
	s += d[5] * x[1]
	y[1] += s
	for i := 2; i < n; i++ {
		base := 3 * i
		a2, a1, diag := d[base], d[base+1], d[base+2]
		xi := x[i]
		s = a2 * x[i-2]
		y[i-2] += a2 * xi
		s += a1 * x[i-1]
		y[i-1] += a1 * xi
		s += diag * xi
		y[i] += s
	}
}

// ToDense materializes the full symmetric matrix (tests and debugging).
func (b *BandMatrix) ToDense() *Matrix {
	d := NewMatrix(b.n, b.n)
	for i := 0; i < b.n; i++ {
		lo := i - b.bw
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= i; j++ {
			v := b.At(i, j)
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

// BandCholesky factorizes symmetric positive-definite band matrices into
// packed storage, split into a symbolic phase (Symbolic: size the packed
// layout, allocate once) and a numeric phase (Factorize: refactorize
// in place with zero allocations). Interior-point loops call Symbolic
// once per problem shape and Factorize once per iteration.
type BandCholesky struct {
	n, bw int
	l     []float64 // packed lower factor, bw+1 entries per row
	// lt mirrors the factor transposed (packed columns of L) so back
	// substitution walks memory contiguously; rebuilt by each Factorize.
	lt   []float64
	dinv []float64 // 1/L[i][i]: substitution multiplies instead of divides
	// useLT records whether Factorize built the transposed copy: below
	// ltThreshold floats the factor fits comfortably in L1, strided reads
	// are free, and the copy pass is pure overhead (the interior-point
	// workloads factorize tiny bands hundreds of thousands of times).
	useLT bool

	// PivotFloor, when positive, makes Factorize replace a pivot at or
	// below PivotFloor times its diagonal entry by that floor instead of
	// failing (static pivoting). Such a pivot is rounding noise — the
	// cancellation of entries ~1/ε times larger — so the factor is of a
	// matrix perturbed at that noise level in those rows; callers refine
	// their solves against the true matrix. Zero keeps the strict check.
	PivotFloor float64
	// Replaced counts the pivots the last Factorize replaced.
	Replaced int
}

// ltThreshold is the packed-factor size (floats) above which Factorize
// maintains the transposed copy for cache-friendly back substitution.
const ltThreshold = 2048

// Symbolic prepares the factorization for matrices of order n with
// half-bandwidth bw: it sizes the packed factor storage, growing the
// buffers only when the shape outgrows them. It performs no numeric work.
func (c *BandCholesky) Symbolic(n, bw int) {
	if n < 0 {
		n = 0
	}
	if bw < 0 {
		bw = 0
	}
	if bw > n-1 {
		bw = n - 1
	}
	if n == 0 {
		bw = 0
	}
	need := n * (bw + 1)
	c.useLT = need > ltThreshold
	if cap(c.l) < need {
		c.l = make([]float64, need)
	}
	if c.useLT && cap(c.lt) < need {
		c.lt = make([]float64, need)
	}
	if cap(c.dinv) < n {
		c.dinv = make([]float64, n)
	}
	c.n, c.bw = n, bw
	c.l = c.l[:need]
	if c.useLT {
		c.lt = c.lt[:need]
	}
	c.dinv = c.dinv[:n]
}

// N returns the order the factorization is prepared for.
func (c *BandCholesky) N() int { return c.n }

// Factorize runs the numeric phase on a, which must match the shape given
// to Symbolic (Factorize re-runs Symbolic when it does not, so a bare
// Factorize is always correct — just not guaranteed allocation-free).
// On error the factor is invalid until the next successful call.
func (c *BandCholesky) Factorize(a *BandMatrix) error {
	if a.n != c.n || a.bw != c.bw {
		c.Symbolic(a.n, a.bw)
	}
	n, bw := c.n, c.bw
	c.Replaced = 0
	if bw == 2 && c.PivotFloor == 0 {
		// The horizon QP's two-datacenter instances (the experiment sweeps)
		// produce this exact shape hundreds of thousands of times per run.
		if err := c.factorizeBW2(a.data); err != nil {
			return err
		}
		c.rebuildLT()
		return nil
	}
	w1 := bw + 1
	l := c.l
	ad := a.data
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		ri := l[i*w1 : (i+1)*w1]
		for j := lo; j < i; j++ {
			// s = a(i,j) − Σ_k L[i][k]·L[j][k], k ∈ [max(lo, j−bw), j).
			kmin := j - bw
			if kmin < lo {
				kmin = lo
			}
			s := ad[i*w1+j-i+bw]
			// Four-accumulator inner product. The paper-scale horizon QPs
			// have single-digit bands, where these products are a handful
			// of terms and run entirely in the remainder loop — as cheap as
			// a plain loop, and still cheaper than a DotProd call. The
			// continental shard QPs have bandwidths in the hundreds, where
			// a single accumulator serializes every iteration on its add
			// chain; splitting the chain keeps the FPU pipeline full in the
			// kernel that dominates coordinated-solve time.
			if cnt := j - kmin; cnt > 0 {
				la := ri[kmin-i+bw : j-i+bw]
				lb := l[j*w1+kmin-j+bw : j*w1+bw]
				lb = lb[:len(la)]
				var s0, s1, s2, s3 float64
				k := 0
				for ; k+4 <= len(la); k += 4 {
					s0 += la[k] * lb[k]
					s1 += la[k+1] * lb[k+1]
					s2 += la[k+2] * lb[k+2]
					s3 += la[k+3] * lb[k+3]
				}
				for ; k < len(la); k++ {
					s0 += la[k] * lb[k]
				}
				s -= (s0 + s2) + (s1 + s3)
			}
			ri[j-i+bw] = s * c.dinv[j]
		}
		// Diagonal pivot, same four-lane accumulation.
		s := ad[i*w1+bw]
		{
			row := ri[lo-i+bw : bw]
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+4 <= len(row); k += 4 {
				s0 += row[k] * row[k]
				s1 += row[k+1] * row[k+1]
				s2 += row[k+2] * row[k+2]
				s3 += row[k+3] * row[k+3]
			}
			for ; k < len(row); k++ {
				s0 += row[k] * row[k]
			}
			s -= (s0 + s2) + (s1 + s3)
		}
		if !(s > 0) || s <= c.PivotFloor*ad[i*w1+bw] {
			if c.PivotFloor == 0 || math.IsNaN(s) || !(ad[i*w1+bw] > 0) {
				return fmt.Errorf("pivot %d = %g: %w", i, s, ErrNotPositiveDefinite)
			}
			s = c.PivotFloor * ad[i*w1+bw]
			c.Replaced++
		}
		d := math.Sqrt(s)
		ri[bw] = d
		c.dinv[i] = 1 / d
	}
	// Packed transposed copy: lt row i holds column i of L from the
	// diagonal down, i.e. lt[i·w1+k] = L[i+k][i]. Skipped for factors
	// small enough to sit in L1, where back substitution reads l directly.
	c.rebuildLT()
	return nil
}

// rebuildLT refreshes the packed transposed copy: lt row i holds column i
// of L from the diagonal down (no-op for factors small enough to be read
// directly).
func (c *BandCholesky) rebuildLT() {
	if !c.useLT {
		return
	}
	n, bw := c.n, c.bw
	w1 := bw + 1
	l, lt := c.l, c.lt
	for i := 0; i < n; i++ {
		hi := bw
		if i+hi > n-1 {
			hi = n - 1 - i
		}
		for k := 0; k <= hi; k++ {
			lt[i*w1+k] = l[(i+k)*w1+bw-k]
		}
	}
}

// factorizeBW2 is the numeric phase unrolled for half-bandwidth 2. Every
// floating-point operation runs in exactly the order of the generic loop
// (ascending k, left-to-right accumulation), so the factor is bit-identical;
// what the unrolling removes is per-row slice arithmetic and the loop-bound
// bookkeeping, which for a 3-wide band costs more than the arithmetic.
func (c *BandCholesky) factorizeBW2(ad []float64) error {
	n := c.n // ≥ 3: Symbolic clamps bw ≤ n−1
	l, dinv := c.l, c.dinv
	s := ad[2]
	if s <= 0 || math.IsNaN(s) {
		return fmt.Errorf("pivot %d = %g: %w", 0, s, ErrNotPositiveDefinite)
	}
	d := math.Sqrt(s)
	l[2] = d
	dinv[0] = 1 / d
	v1 := ad[4] * dinv[0]
	l[4] = v1
	s = ad[5] - v1*v1
	if s <= 0 || math.IsNaN(s) {
		return fmt.Errorf("pivot %d = %g: %w", 1, s, ErrNotPositiveDefinite)
	}
	d = math.Sqrt(s)
	l[5] = d
	dinv[1] = 1 / d
	for i := 2; i < n; i++ {
		base := 3 * i
		v0 := ad[base] * dinv[i-2]
		l[base] = v0
		w := (ad[base+1] - v0*l[base-2]) * dinv[i-1]
		l[base+1] = w
		s = ad[base+2] - v0*v0
		s -= w * w
		if s <= 0 || math.IsNaN(s) {
			return fmt.Errorf("pivot %d = %g: %w", i, s, ErrNotPositiveDefinite)
		}
		d = math.Sqrt(s)
		l[base+2] = d
		dinv[i] = 1 / d
	}
	return nil
}

// solveBW2 is Solve unrolled for half-bandwidth 2 (direct-l back
// substitution — bw-2 factors sit below ltThreshold until n > 682, and the
// dispatch requires !useLT). Operation order matches the generic loops
// exactly, so results are bit-identical.
func (c *BandCholesky) solveBW2(b, x Vector) {
	n := c.n // ≥ 3, as in factorizeBW2
	l, dinv := c.l, c.dinv
	x[0] = b[0] * dinv[0]
	x[1] = (b[1] - l[4]*x[0]) * dinv[1]
	for i := 2; i < n; i++ {
		base := 3 * i
		s := b[i] - l[base]*x[i-2]
		s -= l[base+1] * x[i-1]
		x[i] = s * dinv[i]
	}
	x[n-1] *= dinv[n-1]
	i := n - 2
	x[i] = (x[i] - l[3*i+4]*x[i+1]) * dinv[i]
	for i = n - 3; i >= 0; i-- {
		base := 3 * i
		s := x[i] - l[base+4]*x[i+1]
		s -= l[base+6] * x[i+2]
		x[i] = s * dinv[i]
	}
}

// Solve solves A x = b using the factorization, writing into x. x and b
// may alias. It allocates nothing.
func (c *BandCholesky) Solve(b Vector, x Vector) error {
	n, bw := c.n, c.bw
	if len(b) != n || len(x) != n {
		return fmt.Errorf("band solve b=%d x=%d n=%d: %w", len(b), len(x), n, ErrDimensionMismatch)
	}
	if bw == 2 && !c.useLT {
		c.solveBW2(b, x)
		return nil
	}
	w1 := bw + 1
	l := c.l
	// Forward substitution: L y = b. Narrow bands make the inner products
	// a few terms each; inline loops avoid per-row call overhead.
	for i := 0; i < n; i++ {
		lo := i - bw
		if lo < 0 {
			lo = 0
		}
		s := b[i]
		if lo < i {
			lv := l[i*w1+lo-i+bw : i*w1+bw]
			xv := x[lo:i]
			xv = xv[:len(lv)]
			for k, v := range lv {
				s -= v * xv[k]
			}
		}
		x[i] = s * c.dinv[i]
	}
	// Back substitution: Lᵀ x = y, off the packed transposed copy when one
	// was built, else straight off l (small factors live in L1 anyway).
	if c.useLT {
		lt := c.lt
		for i := n - 1; i >= 0; i-- {
			hi := i + bw
			if hi > n-1 {
				hi = n - 1
			}
			s := x[i]
			if i < hi {
				lv := lt[i*w1+1 : i*w1+hi-i+1]
				xv := x[i+1 : hi+1]
				xv = xv[:len(lv)]
				for k, v := range lv {
					s -= v * xv[k]
				}
			}
			x[i] = s * c.dinv[i]
		}
		return nil
	}
	for i := n - 1; i >= 0; i-- {
		hi := i + bw
		if hi > n-1 {
			hi = n - 1
		}
		s := x[i]
		for k := i + 1; k <= hi; k++ {
			s -= l[k*w1+i-k+bw] * x[k]
		}
		x[i] = s * c.dinv[i]
	}
	return nil
}

// InverseBlock writes the dense inverse of the diagonal block of A on rows
// [lo, lo+size) into z (row-major, size×size), for a factor in which no
// entry couples those rows to a later row — a block-diagonal matrix (the
// horizon QP's per-location blocks) has a block-diagonal factor. It runs
// the Takahashi recurrence Z = L⁻ᵀL⁻¹ backwards from the block's last
// row, O(size²·bw), without forming L⁻¹.
func (c *BandCholesky) InverseBlock(lo, size int, z []float64) error {
	if lo < 0 || lo+size > c.n || len(z) < size*size {
		return fmt.Errorf("band inverse block rows [%d,%d) n=%d, z=%d: %w", lo, lo+size, c.n, len(z), ErrDimensionMismatch)
	}
	bw := c.bw
	w1 := bw + 1
	l := c.l
	// Row j of the recurrence, for j ≤ i < size (block-local indices):
	// Z_ji = (δ_ji/L_jj − Σ_{j<k≤j+bw} L_kj·Z_ki) / L_jj, with Z_ki read
	// through symmetry where k > i.
	for j := size - 1; j >= 0; j-- {
		gj := lo + j
		kmax := min(j+bw, size-1)
		for i := size - 1; i >= j; i-- {
			s := 0.0
			if i == j {
				s = c.dinv[gj]
			}
			for k := j + 1; k <= kmax; k++ {
				s -= l[(lo+k)*w1+gj-(lo+k)+bw] * z[k*size+i]
			}
			v := s * c.dinv[gj]
			z[j*size+i] = v
			z[i*size+j] = v
		}
	}
	return nil
}
