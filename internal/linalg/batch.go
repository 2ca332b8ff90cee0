package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrUpdateUnstable is returned by UpdateRank1/UpdateRankK when a downdate
// would drive a pivot at or below the stability floor — the perturbed
// matrix is (numerically) no longer positive definite along the band.
// After this error the factor is invalid; the caller must refill and
// refactorize, which is exactly the fallback the QP session layer takes.
var ErrUpdateUnstable = errors.New("linalg: band factorization update unstable")

// RankUpdate describes one rank-1 perturbation A' = A + Sigma·v·vᵀ of a
// factorized band matrix, with v given as a dense window: v[i] is the
// entry at row Start+i and everything outside the window is zero. The
// window may span at most bw+1 rows — a wider vector would fill in
// outside the band and is rejected.
type RankUpdate struct {
	Start int
	V     []float64
	Sigma float64
}

// updateStabTol is the relative pivot floor of the downdate: a step that
// would leave d'² ≤ updateStabTol·d² is rejected as unstable (the hyperbolic
// rotation's cosh blows up as the pivot collapses, amplifying rounding in
// every later column). Updates (Sigma > 0) only grow pivots and cannot
// trip it.
const updateStabTol = 1e-14

// UpdateRank1 applies the rank-1 perturbation A' = A + sigma·v·vᵀ to the
// current factorization in place: Givens-style rotations for sigma > 0,
// hyperbolic rotations for sigma < 0, each sweep touching only the band
// (the window constraint keeps the working vector's support inside the
// sliding bw+1 window, so no fill occurs). Cost is O((n−start)·bw) against
// the O(n·bw²) of a fresh factorization — the win when a solve-to-solve
// perturbation touches a handful of constraint rows, as Algorithm 2's
// quota re-division does.
//
// On ErrUpdateUnstable the factor is invalid and must be refactorized.
func (c *BandCholesky) UpdateRank1(start int, v []float64, sigma float64) error {
	if err := c.checkUpdate(start, v, sigma); err != nil {
		return err
	}
	if err := c.updateRank1(start, v, sigma); err != nil {
		return err
	}
	c.rebuildLT()
	return nil
}

// UpdateRankK applies k rank-1 perturbations in sequence, sharing one
// validation pass and one transposed-copy rebuild. On error the factor is
// invalid (a dimension error on any update leaves it untouched; an
// instability mid-sequence does not), and the caller must refactorize.
func (c *BandCholesky) UpdateRankK(ups []RankUpdate) error {
	for i := range ups {
		if err := c.checkUpdate(ups[i].Start, ups[i].V, ups[i].Sigma); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	for i := range ups {
		if err := c.updateRank1(ups[i].Start, ups[i].V, ups[i].Sigma); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	c.rebuildLT()
	return nil
}

func (c *BandCholesky) checkUpdate(start int, v []float64, sigma float64) error {
	if start < 0 || len(v) == 0 || start+len(v) > c.n || len(v) > c.bw+1 {
		return fmt.Errorf("band update start=%d len=%d n=%d bw=%d: %w", start, len(v), c.n, c.bw, ErrDimensionMismatch)
	}
	if sigma == 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return fmt.Errorf("band update sigma=%g: %w", sigma, ErrDimensionMismatch)
	}
	return nil
}

func (c *BandCholesky) updateRank1(start int, v []float64, sigma float64) error {
	n, bw := c.n, c.bw
	w1 := bw + 1
	// Working vector: |sigma| folded into v, sign into the rotation type.
	// Its support starts as the caller's window and slides with the sweep —
	// after eliminating column k it is contained in [k+1, k+bw] — so only
	// the first bw+1 slots past the current column are ever nonzero and the
	// factor's band structure is preserved exactly.
	if cap(c.uw) < n {
		c.uw = make([]float64, n)
	}
	w := c.uw[:n]
	scale := math.Sqrt(math.Abs(sigma))
	for i, vi := range v {
		w[start+i] = vi * scale
	}
	// The sweep's read window slides to w[k+bw]; every entry past the
	// caller's window is mathematically zero throughout (the band keeps the
	// support from spreading), so the scratch tail must start clean.
	for i := start + len(v); i < n; i++ {
		w[i] = 0
	}
	up := sigma > 0
	l := c.l
	for k := start; k < n; k++ {
		wk := w[k]
		if wk == 0 {
			// Identity rotation; the rest of the window is untouched.
			continue
		}
		dk := l[k*w1+bw]
		var r float64
		if up {
			r = math.Sqrt(dk*dk + wk*wk)
		} else {
			rsq := dk*dk - wk*wk
			if !(rsq > updateStabTol*dk*dk) {
				return fmt.Errorf("column %d pivot %g → %g: %w", k, dk, rsq, ErrUpdateUnstable)
			}
			r = math.Sqrt(rsq)
		}
		ch := r / dk
		sh := wk / dk
		l[k*w1+bw] = r
		c.dinv[k] = 1 / r
		hi := k + bw
		if hi > n-1 {
			hi = n - 1
		}
		if up {
			for i := k + 1; i <= hi; i++ {
				lik := (l[i*w1+k-i+bw] + sh*w[i]) / ch
				l[i*w1+k-i+bw] = lik
				w[i] = ch*w[i] - sh*lik
			}
		} else {
			for i := k + 1; i <= hi; i++ {
				lik := (l[i*w1+k-i+bw] - sh*w[i]) / ch
				l[i*w1+k-i+bw] = lik
				w[i] = ch*w[i] - sh*lik
			}
		}
	}
	return nil
}

// rebuildLT refreshes the packed transposed copy after in-place factor
// updates (no-op for factors small enough to be read directly).
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
