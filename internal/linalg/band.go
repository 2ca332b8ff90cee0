package linalg

import (
	"fmt"
	"math"
)

//go:generate go run gen_band.go

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
	n = max(n, 0)
	bw = min(max(bw, 0), max(n-1, 0))
	return &BandMatrix{n: n, bw: bw, data: make([]float64, n*(bw+1))}
}

// N returns the order of the matrix.
func (b *BandMatrix) N() int { return b.n }

// Bandwidth returns the half-bandwidth.
func (b *BandMatrix) Bandwidth() int { return b.bw }

// Packed returns the packed storage itself: row i at
// [i·(bw+1), (i+1)·(bw+1)), entry (i, j) at i·(bw+1) + j − i + bw. Callers
// that scatter into many rows index it directly instead of slicing each
// row.
func (b *BandMatrix) Packed() []float64 { return b.data }

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
	if j < 0 || i >= b.n || i-j > b.bw {
		return fmt.Errorf("band set (%d,%d) n=%d bw=%d: %w", i, j, b.n, b.bw, ErrDimensionMismatch)
	}
	b.data[i*(b.bw+1)+j-i+b.bw] = v
	return nil
}

// AddDiag adds v to every diagonal entry.
func (b *BandMatrix) AddDiag(v float64) {
	w1 := b.bw + 1
	for i := 0; i < b.n; i++ {
		b.data[i*w1+b.bw] += v
	}
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
// ascending column order, the association of a dense row-times-vector
// product that skips the entries outside the band. Half-bandwidths 2…8
// run straight-line kernels (mulVecSymBW2, band_gen.go's mulVecSym) whose
// y is mulVecRows' bit for bit.
func (b *BandMatrix) MulVec(x, y Vector) error {
	if len(x) != b.n || len(y) != b.n {
		return fmt.Errorf("band mulvec x=%d y=%d n=%d: %w", len(x), len(y), b.n, ErrDimensionMismatch)
	}
	clear(y)
	switch {
	case b.bw == 2:
		b.mulVecSymBW2(x, y)
	case b.bw >= 3 && b.bw <= maxKernelBW:
		mulVecSym(b.bw, b, x, y)
	default:
		b.mulVecRows(x, y, 0, b.n)
	}
	return nil
}

// mulVecRows adds rows lo…hi−1 of the product, and their mirrored
// columns, into y, which holds the terms of the rows before lo (zero from
// lo on). It is the reference the kernels match bit for bit.
func (b *BandMatrix) mulVecRows(x, y Vector, lo, hi int) {
	w1 := b.bw + 1
	for i := lo; i < hi; i++ {
		j0 := max(i-b.bw, 0) // the row's first column
		row := b.data[i*w1+j0-i+b.bw : i*w1+w1]
		xi := x[i]
		var s float64
		off := row[:len(row)-1]
		xv := x[j0 : j0+len(off)]
		for k, v := range off {
			s += v * xv[k]
			y[j0+k] += v * xi
		}
		s += row[len(row)-1] * xi
		y[i] += s
	}
}

// mulVecSymBW2 is the bw = 2 product loop with the per-row slice setup
// unrolled away. The accumulate/scatter interleaving is identical to the
// generic loop's (s grows in ascending column order, each y element sees
// the same additions in the same order), so y is bit-identical. y must be
// zeroed by the caller. Kept by measurement, with the other bw-2 kernels
// (game-fig7 p50 121.4 → 132.9 ms without them; DESIGN.md §9).
func (b *BandMatrix) mulVecSymBW2(x, y Vector) {
	n := b.n // ≥ 3: NewBandMatrix clamps bw ≤ n−1
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

// Envelope is the row profile of a symmetric matrix's lower triangle:
// row i holds no entry left of column first[i], and Last(j) is the last
// row that reaches column j. Cholesky fill stays inside the envelope
// (George & Liu 1981), so a factorization given one works only there. A
// block-diagonal matrix stored in one uniform band — the horizon QP's
// location blocks, each padded to the widest — has an envelope as narrow
// as each of its blocks, and a column whose Last is itself closes a
// block.
//
// An envelope is built once (NewEnvelope, FullBand) and is read-only
// afterwards, so one envelope may be shared by any number of concurrent
// factorizations.
type Envelope struct {
	first, last []int
	bw          int // widest row: max over i of i − first[i]
}

// NewEnvelope builds the envelope for the row starts first, which must
// satisfy 0 ≤ first[i] ≤ i. The kernels walk column j through every row
// up to Last(j), so the starts are widened in place to their suffix
// minimum (first[i] ≤ first[i+1]): a row between j and Last(j) that
// started right of j would leave unwritten padding on that walk. Widening
// never raises the bandwidth, and the rows it widens hold exact zeros
// there. The envelope owns first: the caller must not touch it again.
func NewEnvelope(first []int) (*Envelope, error) {
	n := len(first)
	for i, f := range first {
		if f < 0 || f > i {
			return nil, fmt.Errorf("envelope row %d starts at column %d: %w", i, f, ErrDimensionMismatch)
		}
	}
	for i := n - 2; i >= 0; i-- {
		first[i] = min(first[i], first[i+1])
	}
	e := &Envelope{first: first, last: make([]int, n)}
	for j := range e.last {
		e.last[j] = j
	}
	for i, f := range first {
		e.bw = max(e.bw, i-f)
		e.last[f] = max(e.last[f], i)
	}
	// Rows are contiguous from their first column to the diagonal, so a
	// row reaching column j−1 below row j also reaches column j.
	for j := 1; j < n; j++ {
		e.last[j] = max(e.last[j], e.last[j-1])
	}
	return e, nil
}

// FullBand returns the envelope of the whole band of half-bandwidth bw
// (clamped into [0, n−1]) over n rows: row i starts at max(0, i−bw).
func FullBand(n, bw int) *Envelope {
	n = max(n, 0)
	bw = min(max(bw, 0), max(n-1, 0))
	first := make([]int, n)
	for i := range first {
		first[i] = max(0, i-bw)
	}
	e, _ := NewEnvelope(first) // 0 ≤ first[i] ≤ i by construction
	return e
}

// N returns the order of the matrix the envelope describes.
func (e *Envelope) N() int { return len(e.first) }

// Bandwidth returns the widest row's reach below the diagonal.
func (e *Envelope) Bandwidth() int { return e.bw }

// Last returns the last row that reaches column j (at least j).
func (e *Envelope) Last(j int) int { return e.last[j] }

// BandCholesky factorizes symmetric positive-definite band matrices into
// packed storage. Its layout — order, half-bandwidth and envelope — is
// fixed when NewBandCholesky allocates it; Factorize then refactorizes in
// place with zero allocations, as often as the values change.
// Interior-point loops lay a factor out once per session, over an
// envelope analysed once per problem structure, and Factorize once per
// iteration.
//
// Storage is the uniform packed band. Factorize writes all of it: the
// padding between a narrow row's first column and its band edge comes out
// as exact zeros. Solve and InverseBlock loop over the envelope only,
// except the bw = 2 solve, which reads the whole band.
type BandCholesky struct {
	n, bw int
	env   *Envelope // shared read-only
	l     []float64 // packed lower factor, bw+1 entries per row
	dinv  []float64 // 1/L[i][i]: substitution multiplies instead of divides
	col   []float64 // InverseBlock's gathered column of L (bw entries)
}

// NewBandCholesky lays out a factor for matrices of order env.N() stored
// with half-bandwidth bw (clamped into [0, n−1]) whose entries lie inside
// env, allocating its storage once. It performs no numeric work. The
// envelope is retained and only read, so factors may share it.
func NewBandCholesky(bw int, env *Envelope) (*BandCholesky, error) {
	n := env.N()
	bw = min(max(bw, 0), max(n-1, 0))
	if env.bw > bw {
		return nil, fmt.Errorf("envelope reaches %d below the diagonal, band %d: %w", env.bw, bw, ErrDimensionMismatch)
	}
	return &BandCholesky{
		n: n, bw: bw, env: env,
		l:    make([]float64, n*(bw+1)),
		dinv: make([]float64, n),
		col:  make([]float64, bw),
	}, nil
}

// N returns the order the factor is laid out for.
func (c *BandCholesky) N() int { return c.n }

// Factorize runs the numeric phase on a, which must have the order and
// half-bandwidth the factor was laid out for (ErrDimensionMismatch
// otherwise, leaving the factor as it was) and hold no entry outside the
// envelope. On any other error the factor is invalid until the next
// successful call.
func (c *BandCholesky) Factorize(a *BandMatrix) error {
	n, bw := c.n, c.bw
	if a.n != n || a.bw != bw {
		return fmt.Errorf("band factorize n=%d bw=%d into a factor laid out for n=%d bw=%d: %w", a.n, a.bw, n, bw, ErrDimensionMismatch)
	}
	// Half-bandwidths 2…maxKernelBW run the straight-line kernels.
	if bw >= 2 && bw <= maxKernelBW {
		return factorBand(bw, c.l, a.data, c.dinv, n)
	}
	return c.factorizeEnvelope(a.data)
}

// factorizeEnvelope factors the packed band ad looping over the envelope
// only, and writes the padding left of each row's envelope as zeros. It
// serves bands wider than maxKernelBW (S, dense, among them) and bw 0
// and 1, and it is the reference the straight-line kernels (band_gen.go,
// from gen_band.go) must match bit for bit.
//
// A straight-line kernel computes the full band row: entry (i, j)
// subtracts L[i][k]·L[j][k] for every k from max(0, i−bw) up, in
// ascending order, where the loop here starts at max(first[i],
// first[j]). Row starts never decrease, so each extra term has L[i][k] in
// row i's padding, an exact zero, times an entry of an earlier row that
// passed its pivot, which is finite. Subtracting a zero leaves the
// partial sum as it was, except that −0 − (−0) is +0: the factor is
// bit-identical but for the sign of an entry that comes out zero from an
// a(i, j) of −0. The padding itself comes out as +0 when a holds +0
// there (+0 − (±0) is +0).
//
// Measured on the shipped H_b envelopes (paper n 110 bw 4, n120 shard bw
// 5, n120 bw 6; BenchmarkBandKernels) and end to end: see DESIGN.md §7.
// The bw-2 member does the arithmetic of the hand-unrolled kernel it
// replaced, kept by measurement against deletion (DESIGN.md §9).
func (c *BandCholesky) factorizeEnvelope(ad []float64) error {
	n, bw := c.n, c.bw
	l, dinv, first := c.l, c.dinv, c.env.first
	for i := 0; i < n; i++ {
		// Entry (i, j) of row i sits at base+j in the packed storage.
		fi, base := first[i], i*bw+bw
		clear(l[base+max(0, i-bw) : base+fi])
		ri := l[base+fi : base+i+1]
		ai := ad[base+fi : base+i+1]
		for j := fi; j < i; j++ {
			// s = a(i,j) − Σ_k L[i][k]·L[j][k] over the columns inside both
			// rows' envelopes, ascending k.
			k0 := max(fi, first[j])
			lb := l[j*bw+bw+k0 : j*bw+bw+j]
			la := ri[k0-fi : j-fi]
			la = la[:len(lb)]
			s := ai[j-fi]
			for k, v := range lb {
				s -= la[k] * v
			}
			ri[j-fi] = s * dinv[j]
		}
		s := ai[i-fi]
		for _, v := range ri[:i-fi] {
			s -= v * v
		}
		if !(s > 0) {
			return pivotError(i, s)
		}
		d := math.Sqrt(s)
		ri[i-fi] = d
		dinv[i] = 1 / d
	}
	return nil
}

// pivotError reports a pivot s of row i that is not positive (or NaN).
func pivotError(i int, s float64) error {
	return fmt.Errorf("pivot %d = %g: %w", i, s, ErrNotPositiveDefinite)
}

// solveBW2 is Solve unrolled for half-bandwidth 2. Operation order
// matches the generic loops exactly. It reads every band entry, the
// padding too, which Factorize writes as zeros: for a finite right-hand
// side the extra products are zeros, which leave the results
// bit-identical as in factorizeEnvelope, up to the sign of a zero (a
// right-hand side entry of −0 minus a padding product of −0 is +0).
// Kept by measurement (DESIGN.md §9).
func (c *BandCholesky) solveBW2(b, x Vector) {
	n := c.n // ≥ 3: NewBandCholesky clamps bw ≤ n−1
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
// may alias. It allocates nothing. Half-bandwidths 3…8 run band_gen.go's
// row-length-unrolled kernels and bw 2 solveBW2, both doing
// solveEnvelope's arithmetic (solveBW2 up to the sign of a zero).
func (c *BandCholesky) Solve(b Vector, x Vector) error {
	n, bw := c.n, c.bw
	if len(b) != n || len(x) != n {
		return fmt.Errorf("band solve b=%d x=%d n=%d: %w", len(b), len(x), n, ErrDimensionMismatch)
	}
	switch {
	case bw == 2:
		c.solveBW2(b, x)
	case bw >= 3 && bw <= maxKernelBW:
		solveBand(bw, c, b, x)
	default:
		c.solveEnvelope(b, x)
	}
	return nil
}

// solveEnvelope is Solve over the envelope, for bands wider than
// maxKernelBW (S among them) and bw 0 and 1, and the reference the
// kernels match bit for bit.
func (c *BandCholesky) solveEnvelope(b, x Vector) {
	c.forwardRows(b, x, 0, c.n)
	c.backRows(x, 0, c.n)
}

// forwardRows runs rows lo…hi−1 of the forward substitution L y = b over
// each row's envelope, given y's rows before lo in x.
func (c *BandCholesky) forwardRows(b, x Vector, lo, hi int) {
	bw := c.bw
	l, first := c.l, c.env.first
	for i := lo; i < hi; i++ {
		fi := first[i]
		s := b[i]
		lv := l[i*bw+bw+fi : i*bw+bw+i]
		xv := x[fi:i]
		xv = xv[:len(lv)]
		for k, v := range lv {
			s -= v * xv[k]
		}
		x[i] = s * c.dinv[i]
	}
}

// backRows runs rows hi−1 down to lo of the back substitution Lᵀ x = y,
// down column i of l over its envelope, given x's rows from hi on.
func (c *BandCholesky) backRows(x Vector, lo, hi int) {
	bw := c.bw
	w1 := bw + 1
	l, last := c.l, c.env.last
	for i := hi - 1; i >= lo; i-- {
		s := x[i]
		for k := i + 1; k <= last[i]; k++ {
			s -= l[k*w1+i-k+bw] * x[k]
		}
		x[i] = s * c.dinv[i]
	}
}

// InverseBlock writes the dense inverse of the diagonal block of A on rows
// [lo, lo+size) into z (row-major, size×size), for a factor in which no
// entry couples those rows to a later row — a block-diagonal matrix (the
// horizon QP's per-location blocks) has a block-diagonal factor. It runs
// the Takahashi recurrence Z = L⁻ᵀL⁻¹ backwards from the block's last
// row, O(size²·bw) within the envelope, without forming L⁻¹.
func (c *BandCholesky) InverseBlock(lo, size int, z []float64) error {
	if lo < 0 || lo+size > c.n || len(z) < size*size {
		return fmt.Errorf("band inverse block rows [%d,%d) n=%d, z=%d: %w", lo, lo+size, c.n, len(z), ErrDimensionMismatch)
	}
	bw := c.bw
	l, last := c.l, c.env.last
	// Row j of the recurrence, for j ≤ i < size (block-local indices):
	// Z_ji = (δ_ji/L_jj − Σ_{j<k≤last(j)} L_kj·Z_ik) / L_jj. Columns of
	// 1…maxKernelBW entries run the straight-line kernels of band_gen.go.
	for j := size - 1; j >= 0; j-- {
		gj := lo + j
		kmax := min(last[gj]-lo, size-1)
		if !inverseColumnShort(l, z, bw, gj, j, kmax-j, size, c.dinv[gj]) {
			c.inverseColumn(lo, size, j, kmax, z)
		}
	}
	return nil
}

// inverseColumn runs column j of InverseBlock's recurrence, whose entries
// below the diagonal reach block row kmax, for any column length.
// Column j of L is gathered once; Z_ik (= Z_ki, written mirrored) is then
// a contiguous run of row i.
func (c *BandCholesky) inverseColumn(lo, size, j, kmax int, z []float64) {
	bw := c.bw
	w1 := bw + 1
	gj := lo + j
	col := c.col[:kmax-j]
	for k := range col {
		gk := gj + 1 + k
		col[k] = c.l[gk*w1+gj-gk+bw]
	}
	dj := c.dinv[gj]
	for i := size - 1; i >= j; i-- {
		s := 0.0
		if i == j {
			s = dj
		}
		zi := z[i*size+j+1 : i*size+kmax+1]
		zi = zi[:len(col)]
		for k, v := range col {
			s -= v * zi[k]
		}
		v := s * dj
		z[j*size+i] = v
		z[i*size+j] = v
	}
}
