package qp

import (
	"fmt"
	"sort"

	"dspp/internal/linalg"
)

// linkSchur is the coupling half of the KKT solve: the Schur complement
// of the linking rows of G and the equality rows of A against the band
// part H_b. With C the coupling rows, the Newton system
//
//	[H_b  Cᵀ] [dx]   [r ]
//	[C   −D ] [λ ] = [b2]
//
// reduces to S λ = C H_b⁻¹ r − b2 with S = D + C H_b⁻¹ Cᵀ, and then
// dx = H_b⁻¹ (r − Cᵀλ). D is W_L⁻¹ on linking rows and the static
// regularization on equality rows (their W⁻¹ is zero; b2 = −re there and
// λ is the equality-dual step). H_b is block diagonal — the horizon QP's
// per-location blocks — so C H_b⁻¹ Cᵀ is a sum over the blocks each pair
// of coupling rows shares, read off each touched block's dense inverse:
// O(size²·bw) per block, instead of a full-length band solve per coupling
// row.
type linkSchur struct {
	k, nc int // linking rows of G (coupling rows 0..k−1); all coupling rows

	// Coupling rows in CSR form: the k linking rows of G, then A's rows.
	ptr  []int
	cols []int
	vals []float64

	// Touched diagonal blocks of H_b. Block j spans rows [lo[j], hi[j]) and
	// owns slots slot[j] .. slot[j+1]−1. Slot s belongs to coupling row
	// row[s] (ascending within a block); its entries inside the block are
	// cols/vals[eLo[s]:eHi[s]].
	lo, hi, slot  []int
	row, eLo, eHi []int
	zinv          linalg.Vector        // one block's dense inverse (largest block²)
	gram          linalg.Vector        // nc×nc C H_b⁻¹ Cᵀ, upper triangle, row-major
	s             *linalg.BandMatrix   // S, dense (bw = nc−1) in packed storage
	chol          *linalg.BandCholesky // factor of S
	wb            linalg.Vector        // m: KKT weights with the linking rows zeroed

	// Direction-solve working set: the multipliers λ, the second-block
	// right-hand side and refinement step (nc each), and the saved r plus
	// two residual buffers (n each; updateResiduals borrows t1 for Gᵀdz).
	lam, c2, dl linalg.Vector
	r1, t1, t2  linalg.Vector
	gl          linalg.Vector // k: G·dx on the linking rows

	reach, bnd, key []int // analysis scratch
}

// analyze lays out the Schur pieces for p (the symbolic phase, once per
// problem). qb is Q's lower band as the solver holds it. The diagonal
// blocks of H_b are found from its pattern: Q's band and the band rows of
// G. Column c closes a block when nothing at or before c couples to a
// column after it.
func (ls *linkSchur) analyze(p *Problem, qb *linalg.BandMatrix, n, m, q int) {
	ls.k = len(p.Linking)
	ls.nc = ls.k + q
	if ls.nc == 0 {
		return
	}
	reach := growInts(ls.reach, n)
	for i := range reach {
		reach[i] = i
	}
	bw := qb.Bandwidth()
	for i := 0; i < n; i++ {
		row := qb.Row(i)
		for d := 0; d < bw; d++ {
			if j := i - bw + d; j >= 0 && row[d] != 0 {
				if i > reach[j] {
					reach[j] = i
				}
				break
			}
		}
	}
	lk := p.Linking
	for r := 0; r < m; r++ {
		if len(lk) > 0 && lk[0] == r {
			lk = lk[1:]
			continue
		}
		if first, last, ok := rowSpan(p.G, r); ok && last > reach[first] {
			reach[first] = last
		}
	}
	bnd := append(ls.bnd[:0], 0)
	far := 0
	for c := 0; c < n; c++ {
		if reach[c] > far {
			far = reach[c]
		}
		if far == c {
			bnd = append(bnd, c+1)
		}
	}
	ls.reach, ls.bnd = reach, bnd

	ptr := append(ls.ptr[:0], 0)
	cols, vals := ls.cols[:0], ls.vals[:0]
	for _, r := range p.Linking {
		cols, vals = appendRow(p.G, r, cols, vals)
		ptr = append(ptr, len(cols))
	}
	for r := 0; r < q; r++ {
		cols, vals = appendRow(p.A, r, cols, vals)
		ptr = append(ptr, len(cols))
	}
	ls.ptr, ls.cols, ls.vals = ptr, cols, vals

	// One slot per (block, coupling row) pair, keyed block-major so the
	// sort groups each block's slots with their rows ascending.
	key, row, eLo, eHi := ls.key[:0], ls.row[:0], ls.eLo[:0], ls.eHi[:0]
	for c := 0; c < ls.nc; c++ {
		for e := ptr[c]; e < ptr[c+1]; {
			j := sort.SearchInts(bnd, cols[e]+1) - 1
			f := e + 1
			for f < ptr[c+1] && cols[f] < bnd[j+1] {
				f++
			}
			key = append(key, j*ls.nc+c)
			row = append(row, c)
			eLo = append(eLo, e)
			eHi = append(eHi, f)
			e = f
		}
	}
	ls.key, ls.row, ls.eLo, ls.eHi = key, row, eLo, eHi
	sort.Sort(slotOrder{ls})

	lo, hi, slot := ls.lo[:0], ls.hi[:0], ls.slot[:0]
	widest := 0
	for s, kv := range key {
		j := kv / ls.nc
		if s == 0 || j != key[s-1]/ls.nc {
			lo = append(lo, bnd[j])
			hi = append(hi, bnd[j+1])
			slot = append(slot, s)
			widest = max(widest, bnd[j+1]-bnd[j])
		}
	}
	ls.lo, ls.hi, ls.slot = lo, hi, append(slot, len(key))
	ls.zinv = growVec(ls.zinv, widest*widest)
	ls.gram = growVec(ls.gram, ls.nc*ls.nc)
	ls.lam = growVec(ls.lam, ls.nc)
	ls.c2 = growVec(ls.c2, ls.nc)
	ls.dl = growVec(ls.dl, ls.nc)
	ls.r1 = growVec(ls.r1, n)
	ls.t1 = growVec(ls.t1, n)
	ls.t2 = growVec(ls.t2, n)
	ls.gl = growVec(ls.gl, ls.k)
	if ls.k > 0 {
		ls.wb = growVec(ls.wb, m)
	}
	ls.s.Reset(ls.nc, ls.nc-1)
	ls.chol.Symbolic(ls.nc, ls.nc-1)
}

// slotOrder sorts a linkSchur's slots by key, carrying the parallel arrays.
type slotOrder struct{ ls *linkSchur }

func (o slotOrder) Len() int           { return len(o.ls.key) }
func (o slotOrder) Less(a, b int) bool { return o.ls.key[a] < o.ls.key[b] }
func (o slotOrder) Swap(a, b int) {
	ls := o.ls
	ls.key[a], ls.key[b] = ls.key[b], ls.key[a]
	ls.row[a], ls.row[b] = ls.row[b], ls.row[a]
	ls.eLo[a], ls.eLo[b] = ls.eLo[b], ls.eLo[a]
	ls.eHi[a], ls.eHi[b] = ls.eHi[b], ls.eHi[a]
}

// bandWeights returns w with the linking rows zeroed, the weights the band
// assembly sees.
func (ls *linkSchur) bandWeights(w linalg.Vector, linking []int) linalg.Vector {
	if ls.k == 0 {
		return w
	}
	wb := ls.wb[:len(w)]
	copy(wb, w)
	for _, r := range linking {
		wb[r] = 0
	}
	return wb
}

// formGram recomputes C H_b⁻¹ Cᵀ from the current band factor, block by
// block: each touched block's dense inverse, then every pair of coupling
// rows that meet in the block adds its entries' products.
func (ls *linkSchur) formGram(ch *linalg.BandCholesky) error {
	nc := ls.nc
	g := ls.gram[:nc*nc]
	for i := range g {
		g[i] = 0
	}
	for j, lo := range ls.lo {
		size := ls.hi[j] - lo
		z := ls.zinv[:size*size]
		if err := ch.InverseBlock(lo, size, z); err != nil {
			return err
		}
		s0 := ls.slot[j]
		for s := s0; s < ls.slot[j+1]; s++ {
			es := ls.eLo[s]
			single := ls.eHi[s]-es == 1 // a capacity row: one pair per block
			for t := s0; t <= s; t++ {
				et := ls.eLo[t]
				var v float64
				if single && ls.eHi[t]-et == 1 {
					v = ls.vals[es] * ls.vals[et] * z[(ls.cols[es]-lo)*size+ls.cols[et]-lo]
				} else {
					for e := es; e < ls.eHi[s]; e++ {
						zr := z[(ls.cols[e]-lo)*size : (ls.cols[e]-lo+1)*size]
						var sum float64
						for f := et; f < ls.eHi[t]; f++ {
							sum += zr[ls.cols[f]-lo] * ls.vals[f]
						}
						v += ls.vals[e] * sum
					}
				}
				g[ls.row[t]*nc+ls.row[s]] += v
			}
		}
	}
	return nil
}

// factorS assembles S = D + C H_b⁻¹ Cᵀ for the current weights and
// factors it.
func (ls *linkSchur) factorS(w linalg.Vector, linking []int, reg float64) error {
	nc := ls.nc
	g := ls.gram
	for i := 0; i < nc; i++ {
		row := ls.s.Row(i) // bw = nc−1: column j sits at j + nc−1−i
		for j := 0; j < i; j++ {
			row[j+nc-1-i] = g[j*nc+i]
		}
		d := reg
		if i < ls.k {
			d = 1 / w[linking[i]]
		}
		row[nc-1] = g[i*nc+i] + d
	}
	return ls.chol.Factorize(ls.s)
}

// linkPivotFloor is the static-pivoting floor of the band factor when
// linking rows are present (linalg.BandCholesky.PivotFloor). Moving the
// linking rows out of the band removes their stiffness from H_b, so late
// in a run a block can hold one huge-weight demand row over soft
// reconfiguration curvature: the Cholesky pivots of the soft directions
// then cancel to rounding noise and may come out negative. Flooring them
// at the noise level keeps the factor, and linkRefineSteps of iterative
// refinement against the true system recover the lost digits — the
// linking rows that the true system does hold pin exactly those
// directions.
const linkPivotFloor = 1e-13

// linkRefineSteps bounds the iterative refinement of a linked direction
// solve whose band factor was perturbed (a floored pivot or the
// regularization bump).
const linkRefineSteps = 3

// solveLinked solves the Newton system for the r1 held in st.dx through
// the band factor and the Schur complement:
//
//	[H_b  Cᵀ] [dx]   [r1]
//	[C   −D ] [λ ] = [b2]
//
// with b2 = 0 on linking rows and −re on equality rows, then refines the
// solution against residuals of that system. dx lands in st.dx, λ in
// link.lam, and the equality-dual step in st.dy.
func (st *ipmState) solveLinked() error {
	ls := &st.link
	n, nc, k := st.n, ls.nc, ls.k
	dx, r1 := st.dx[:n], ls.r1[:n]
	copy(r1, dx)
	b2 := ls.c2[:nc]
	for i := 0; i < k; i++ {
		b2[i] = 0
	}
	for i := k; i < nc; i++ {
		b2[i] = -st.re[i-k]
	}
	if err := ls.solveAugmented(st.bchol, r1, dx, b2, ls.lam); err != nil {
		return err
	}
	rNorm := r1.NormInf()
	lam := ls.lam[:nc]
	steps := 0
	if st.bumped {
		steps = linkRefineSteps
	}
	for step := 0; step < steps; step++ {
		// rx = r1 − (Q + reg)·dx − G_bᵀ W_b G_b dx − Cᵀλ and
		// rl = b2 − C dx + D λ, with D = 1/w on linking rows and reg on
		// equality rows (b2 = −re there, 0 on linking rows).
		rx, t := ls.t1[:n], ls.t2[:n]
		_ = st.qBand.MulVec(dx, rx)
		gdx := st.scratchM[:st.m]
		_ = st.p.G.MulVec(dx, gdx)
		lk := st.p.Linking
		for i := range gdx {
			if len(lk) > 0 && lk[0] == i {
				gdx[i] = lam[k-len(lk)]
				lk = lk[1:]
				continue
			}
			gdx[i] *= st.w[i]
		}
		_ = st.p.G.MulVecT(gdx, t)
		var resid float64
		for i := range rx {
			v := r1[i] - rx[i] - st.reg*dx[i] - t[i]
			rx[i] = v
			if v < 0 {
				v = -v
			}
			if v > resid {
				resid = v
			}
		}
		if st.q > 0 {
			_ = st.p.A.MulVecT(lam[k:], t)
			for i := range rx {
				rx[i] -= t[i]
			}
		}
		rl := ls.c2[:nc]
		for c := 0; c < nc; c++ {
			var v float64
			for e := ls.ptr[c]; e < ls.ptr[c+1]; e++ {
				v -= ls.vals[e] * dx[ls.cols[e]]
			}
			if c < k {
				v += lam[c] / st.w[st.p.Linking[c]]
			} else {
				v += st.reg*lam[c] - st.re[c-k]
			}
			rl[c] = v
		}
		if st.q == 0 && resid <= 1e-15*(1+rNorm) {
			break
		}
		if err := ls.solveAugmented(st.bchol, rx, t, rl, ls.dl); err != nil {
			return err
		}
		linalg.Axpy(1, t, dx)
		linalg.Axpy(1, ls.dl[:nc], lam)
	}
	copy(st.dy[:st.q], lam[k:])
	return nil
}

// solveAugmented solves the augmented system for right-hand side
// (r, b2): x = H_b⁻¹(r − Cᵀλ) with S λ = C H_b⁻¹ r − b2, λ into lam. r is
// left intact; x must not alias it.
func (ls *linkSchur) solveAugmented(ch *linalg.BandCholesky, r, x, b2, lam linalg.Vector) error {
	if err := ch.Solve(r, x); err != nil {
		return fmt.Errorf("%v: %w", err, ErrNumerical)
	}
	lam = lam[:ls.nc]
	for c := range lam {
		v := -b2[c]
		for e := ls.ptr[c]; e < ls.ptr[c+1]; e++ {
			v += ls.vals[e] * x[ls.cols[e]]
		}
		lam[c] = v
	}
	if err := ls.chol.Solve(lam, lam); err != nil {
		return fmt.Errorf("schur: %v: %w", err, ErrNumerical)
	}
	copy(x, r)
	for c, lc := range lam {
		for e := ls.ptr[c]; e < ls.ptr[c+1]; e++ {
			x[ls.cols[e]] -= ls.vals[e] * lc
		}
	}
	if err := ch.Solve(x, x); err != nil {
		return fmt.Errorf("%v: %w", err, ErrNumerical)
	}
	return nil
}

// rowSpan reports the first and last nonzero column of row r of op.
func rowSpan(op linalg.Operator, r int) (first, last int, ok bool) {
	if sp, isSparse := op.(*linalg.SparseMatrix); isSparse {
		cols, _ := sp.RowEntries(r)
		if len(cols) == 0 {
			return 0, 0, false
		}
		return cols[0], cols[len(cols)-1], true
	}
	first = -1
	for j := 0; j < op.Cols(); j++ {
		if op.At(r, j) != 0 {
			if first < 0 {
				first = j
			}
			last = j
		}
	}
	return first, last, first >= 0
}

// appendRow appends row r of op's nonzeros (ascending columns).
func appendRow(op linalg.Operator, r int, cols []int, vals []float64) ([]int, []float64) {
	if sp, isSparse := op.(*linalg.SparseMatrix); isSparse {
		rc, rv := sp.RowEntries(r)
		return append(cols, rc...), append(vals, rv...)
	}
	for j := 0; j < op.Cols(); j++ {
		if v := op.At(r, j); v != 0 {
			cols = append(cols, j)
			vals = append(vals, v)
		}
	}
	return cols, vals
}

// growInts is growVec for index slices.
func growInts(v []int, n int) []int {
	if cap(v) < n {
		return make([]int, n)
	}
	return v[:n]
}
