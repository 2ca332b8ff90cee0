package qp

import (
	"fmt"

	"dspp/internal/linalg"
)

// linkSchur is the coupling half of the KKT solve: the Schur complement
// of the linking rows of G against the band part H_b. With C the linking
// rows, the Newton system
//
//	[H_b  Cᵀ] [dx]   [r ]
//	[C   −D ] [λ ] = [b2]
//
// reduces to S λ = C H_b⁻¹ r − b2 with S = D + C H_b⁻¹ Cᵀ, and then
// dx = H_b⁻¹ (r − Cᵀλ), where D = W_L⁻¹. H_b is block diagonal — the
// horizon QP's per-location blocks — so C H_b⁻¹ Cᵀ is a sum over the
// blocks each pair of linking rows shares, read off each touched block's
// dense inverse: O(size²·bw) per block, instead of a full-length band
// solve per linking row.
type linkSchur struct {
	// The symbolic half, shared read-only with every solve on the
	// structure: linking rows, blocks, slots and the Gram scatter map.
	*linkSymbolic

	zinv linalg.Vector        // one block's dense inverse (largest block²)
	s    *linalg.BandMatrix   // S, dense (bw = k−1) in packed storage
	chol *linalg.BandCholesky // factor of S
	wb   linalg.Vector        // m: KKT weights with the linking rows zeroed

	// Direction-solve working set: the multipliers λ, the second-block
	// right-hand side and refinement step (k each), and the saved r plus
	// two residual buffers (n each; updateResiduals borrows t1 for Gᵀdz).
	lam, c2, dl linalg.Vector
	r1, t1, t2  linalg.Vector
	gl          linalg.Vector // k: G·dx on the linking rows
}

// reset binds the numeric working set to sym and sizes it for n
// variables and m inequality rows.
func (ls *linkSchur) reset(sym *linkSymbolic, n, m int) {
	ls.linkSymbolic = sym
	if ls.k == 0 {
		return
	}
	ls.zinv = growVec(ls.zinv, ls.widest*ls.widest)
	ls.lam = growVec(ls.lam, ls.k)
	ls.c2 = growVec(ls.c2, ls.k)
	ls.dl = growVec(ls.dl, ls.k)
	ls.r1 = growVec(ls.r1, n)
	ls.t1 = growVec(ls.t1, n)
	ls.t2 = growVec(ls.t2, n)
	ls.gl = growVec(ls.gl, ls.k)
	ls.wb = growVec(ls.wb, m)
	ls.s.Reset(ls.k, ls.k-1)
	ls.chol.Symbolic(ls.k, ls.k-1)
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

// formGram recomputes C H_b⁻¹ Cᵀ from the current band factor into S's
// packed storage, block by block: each touched block's dense inverse,
// then every pair of linking rows that meet in the block adds its
// entries' products — through the precomputed scatter terms where both
// rows meet the block in one entry of coefficient 1. Each entry gets at most one addition
// per block, so the terms and the general pairs may go in either order.
func (ls *linkSchur) formGram(ch *linalg.BandCholesky) error {
	ls.s.ZeroBand()
	g := ls.s.Packed()
	for j, lo := range ls.lo {
		size := ls.hi[j] - lo
		z := ls.zinv[:size*size]
		if err := ch.InverseBlock(lo, size, z); err != nil {
			return err
		}
		for _, tm := range ls.terms[ls.termPtr[j]:ls.termPtr[j+1]] {
			g[tm.s] += z[tm.z]
		}
		for _, pr := range ls.pairs[ls.pairPtr[j]:ls.pairPtr[j+1]] {
			s, t := pr[0], pr[1]
			var v float64
			for e := ls.eLo[s]; e < ls.eHi[s]; e++ {
				zr := z[(ls.cols[e]-lo)*size : (ls.cols[e]-lo+1)*size]
				var sum float64
				for f := ls.eLo[t]; f < ls.eHi[t]; f++ {
					sum += zr[ls.cols[f]-lo] * ls.vals[f]
				}
				v += ls.vals[e] * sum
			}
			g[ls.sIndex(ls.row[s], ls.row[t])] += v
		}
	}
	return nil
}

// factorS completes S = D + C H_b⁻¹ Cᵀ, whose Gram part formGram left in
// S, with the current weights and factors it.
func (ls *linkSchur) factorS(w linalg.Vector, linking []int) error {
	for i, r := range linking {
		ls.s.Row(i)[ls.k-1] += 1 / w[r]
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
// with b2 = 0, then, when the band factor was perturbed, refines the
// solution against residuals of that system. dx lands in st.dx and λ in
// link.lam.
func (st *ipmState) solveLinked() error {
	ls := &st.link
	n, k := st.n, ls.k
	dx, r1 := st.dx[:n], ls.r1[:n]
	copy(r1, dx)
	b2 := ls.c2[:k]
	for i := range b2 {
		b2[i] = 0
	}
	if err := ls.solveAugmented(st.bchol, r1, dx, b2, ls.lam); err != nil {
		return err
	}
	if !st.bumped {
		return nil
	}
	// Only a perturbed band factor needs refinement; its stopping test
	// is relative to the right-hand side.
	rNorm := r1.NormInf()
	lam := ls.lam[:k]
	for step := 0; step < linkRefineSteps; step++ {
		// rx = r1 − (Q + reg)·dx − G_bᵀ W_b G_b dx − Cᵀλ and
		// rl = −C dx + D λ, with D = 1/w.
		rx, t := ls.t1[:n], ls.t2[:n]
		_ = st.sym.qBand.MulVec(dx, rx)
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
			v := r1[i] - rx[i] - regularize*dx[i] - t[i]
			rx[i] = v
			if v < 0 {
				v = -v
			}
			if v > resid {
				resid = v
			}
		}
		rl := ls.c2[:k]
		for c := range rl {
			var v float64
			for e := ls.ptr[c]; e < ls.ptr[c+1]; e++ {
				v -= ls.vals[e] * dx[ls.cols[e]]
			}
			rl[c] = v + lam[c]/st.w[st.p.Linking[c]]
		}
		if resid <= 1e-15*(1+rNorm) {
			break
		}
		if err := ls.solveAugmented(st.bchol, rx, t, rl, ls.dl); err != nil {
			return err
		}
		linalg.Axpy(1, t, dx)
		linalg.Axpy(1, ls.dl[:k], lam)
	}
	return nil
}

// solveAugmented solves the augmented system for right-hand side
// (r, b2): x = H_b⁻¹(r − Cᵀλ) with S λ = C H_b⁻¹ r − b2, λ into lam. r is
// left intact; x must not alias it.
func (ls *linkSchur) solveAugmented(ch *linalg.BandCholesky, r, x, b2, lam linalg.Vector) error {
	if err := ch.Solve(r, x); err != nil {
		return fmt.Errorf("%v: %w", err, ErrNumerical)
	}
	lam = lam[:ls.k]
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
