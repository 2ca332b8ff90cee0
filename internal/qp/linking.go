package qp

import (
	"fmt"

	"dspp/internal/linalg"
)

// linkSchur is the coupling half of the KKT solve: the Schur complement
// of the linking rows of G against the band part H_b. With C the linking
// rows, the Newton system
//
//	[H_b  Cᵀ] [dx]   [r]
//	[C   −D ] [λ ] = [0]
//
// reduces to S λ = C H_b⁻¹ r with S = D + C H_b⁻¹ Cᵀ, and then
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

	// Direction-solve working set.
	lam linalg.Vector // k: the multipliers λ
	r1  linalg.Vector // n: the saved r
	gl  linalg.Vector // k: G·dx on the linking rows
}

// newLinkSchur sizes the numeric working set for sym, n variables and m
// inequality rows.
func newLinkSchur(sym *linkSymbolic, n, m int) linkSchur {
	ls := linkSchur{linkSymbolic: sym}
	if sym.k == 0 {
		return ls
	}
	ls.zinv = linalg.NewVector(sym.widest * sym.widest)
	ls.lam = linalg.NewVector(sym.k)
	ls.r1 = linalg.NewVector(n)
	ls.gl = linalg.NewVector(sym.k)
	ls.wb = linalg.NewVector(m)
	ls.s = linalg.NewBandMatrix(sym.k, sym.k-1)
	ls.chol, _ = linalg.NewBandCholesky(sym.k-1, sym.env) // cannot fail: env is S's full band
	return ls
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

// solveLinked solves the Newton system for the r held in st.dx through
// the band factor and the Schur complement:
//
//	[H_b  Cᵀ] [dx]   [r]
//	[C   −D ] [λ ] = [0]
//
// as dx = H_b⁻¹(r − Cᵀλ) with S λ = C H_b⁻¹ r. dx lands in st.dx and λ
// in link.lam; r is saved in link.r1.
func (st *ipmState) solveLinked() error {
	ls, ch := &st.link, st.bchol
	r, x := ls.r1[:st.n], st.dx[:st.n]
	copy(r, x)
	if err := ch.Solve(r, x); err != nil {
		return fmt.Errorf("%v: %w", err, ErrNumerical)
	}
	lam := ls.lam[:ls.k]
	for c := range lam {
		var v float64
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
