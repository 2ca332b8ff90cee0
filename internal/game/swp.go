package game

import (
	"fmt"
	"math"

	"dspp/internal/core"
	"dspp/internal/linalg"
	"dspp/internal/qp"
)

// SWPResult is the social-welfare optimum: the joint cost-minimizing
// allocation over all providers under the shared capacity constraints.
type SWPResult struct {
	Outcomes []Outcome
	// Total is Σᵢ Jᵢ at the optimum.
	Total float64
	// CapacityDuals[t][l] are the shared capacity constraint duals.
	CapacityDuals [][]float64
	// QPIterations reports interior-point iterations.
	QPIterations int
}

// swpLayout captures the variable block structure of the joint QP.
type swpLayout struct {
	w       int
	l       int
	offsets []int   // per provider: first variable index
	pairsL  [][]int // per provider: pair index -> DC
	pairsV  [][]int // per provider: pair index -> location
	pairAt  [][]float64
	numVars int
	capDCs  []int
	x0      []core.State
}

func buildLayout(s *Scenario, players []*player) (*swpLayout, error) {
	w := s.Window()
	l := len(s.Capacity)
	lay := &swpLayout{w: w, l: l}
	for li := 0; li < l; li++ {
		if !math.IsInf(s.Capacity[li], 1) {
			lay.capDCs = append(lay.capDCs, li)
		}
	}
	for i, p := range s.Providers {
		lay.offsets = append(lay.offsets, lay.numVars)
		var pl, pv []int
		var pa []float64
		for li := 0; li < l; li++ {
			for vi := 0; vi < p.numLocations(); vi++ {
				a := p.SLA[li][vi]
				if math.IsInf(a, 1) {
					continue
				}
				if a <= 0 || math.IsNaN(a) {
					return nil, fmt.Errorf("provider SLA (%d,%d) = %g: %w", li, vi, a, ErrBadScenario)
				}
				pl = append(pl, li)
				pv = append(pv, vi)
				pa = append(pa, a)
			}
		}
		lay.pairsL = append(lay.pairsL, pl)
		lay.pairsV = append(lay.pairsV, pv)
		lay.pairAt = append(lay.pairAt, pa)
		lay.numVars += len(pl) * w
		lay.x0 = append(lay.x0, players[i].x0)
	}
	return lay, nil
}

// varIdx returns the QP variable index of provider i, horizon step t,
// dense pair pi: provider blocks, time-major inside.
func (lay *swpLayout) varIdx(i, t, pi int) int {
	return lay.offsets[i] + t*len(lay.pairsL[i]) + pi
}

// SolveSocialWelfare solves the joint SWP (§VI-B) as a single QP. Every
// provider's demand and nonnegativity constraints appear alongside the
// shared capacity constraints Σᵢ sᵢ·xᵢ ≤ C.
//
// The QP is block-angular, in the cumulative variables of core's horizon
// QP: y_t = Σ_{τ≤t} u_τ, the planned state relative to x0, in provider
// blocks. Q and each provider's demand and nonnegativity rows then stay
// inside one provider's block, with a band as narrow as its widest time
// step, and only the shared capacity rows couple the blocks: they are the
// solver's linking rows. The change of variables is invertible, so the
// optimum and the capacity duals are those of the problem in the controls
// u. It is one solve, on a one-use session.
func SolveSocialWelfare(s *Scenario) (*SWPResult, error) {
	players, err := s.players()
	if err != nil {
		return nil, err
	}
	lay, err := buildLayout(s, players)
	if err != nil {
		return nil, err
	}
	w, n := lay.w, lay.numVars

	// Quadratic term: Σ_t c (y_t − y_{t−1})², y_{−1} = 0 — in the ½ yᵀQy
	// convention 4c on the diagonal (2c on the final step) and −2c between
	// consecutive steps of a pair, one block row apart. Step t to t+1 is
	// the band's reach; a demand row spans one block row. The linear term
	// is the price per cumulative variable.
	widest := 0
	for _, pl := range lay.pairsL {
		widest = max(widest, len(pl))
	}
	bw := widest - 1
	if w > 1 {
		bw = widest
	}
	qMat := linalg.NewBandMatrix(n, bw)
	cVec := linalg.NewVector(n)
	set := func(i, j int, v float64) {
		if e := qMat.Set(i, j, v); e != nil && err == nil {
			err = e
		}
	}
	for i, p := range s.Providers {
		stride := len(lay.pairsL[i])
		for pi, li := range lay.pairsL[i] {
			c2 := 2 * p.ReconfigWeights[li]
			for t := 0; t < w; t++ {
				idx := lay.varIdx(i, t, pi)
				cVec[idx] = p.Prices[t][li]
				if t < w-1 {
					set(idx, idx, 2*c2)
					set(idx+stride, idx, -c2)
				} else {
					set(idx, idx, c2)
				}
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("SWP quadratic term: %w", err)
	}

	// Rows: per provider and step, demand (Vᵢ) then nonnegativity (Eᵢ);
	// then per step the shared capacity row of every capacitated DC.
	m, nnz := w*len(lay.capDCs), 0
	for i, p := range s.Providers {
		m += w * (p.numLocations() + len(lay.pairsL[i]))
		nnz += 3 * w * len(lay.pairsL[i])
	}
	gb := linalg.NewSparseBuilder(m, n, nnz)
	hVec := linalg.NewVector(m)
	row := 0
	for i, p := range s.Providers {
		for t := 0; t < w; t++ {
			// Demand: −Σ_{e∈v} y_t^e/a_e ≤ −D_t^v + Σ_{e∈v} x0_e/a_e.
			for vi := 0; vi < p.numLocations(); vi++ {
				gb.StartRow()
				rhs := -p.Demand[t][vi]
				for pi, li := range lay.pairsL[i] {
					if lay.pairsV[i][pi] != vi {
						continue
					}
					inv := 1 / lay.pairAt[i][pi]
					rhs += lay.x0[i][li][vi] * inv
					gb.Add(lay.varIdx(i, t, pi), -inv)
				}
				hVec[row] = rhs
				row++
			}
			// Nonnegativity: −y_t^e ≤ x0_e.
			for pi, li := range lay.pairsL[i] {
				gb.StartRow()
				gb.Add(lay.varIdx(i, t, pi), -1)
				hVec[row] = lay.x0[i][li][lay.pairsV[i][pi]]
				row++
			}
		}
	}
	// Shared capacity: Σᵢ sᵢ Σ_{e∈l} y_t^e ≤ C_l − Σᵢ sᵢ Σ_{e∈l} x0_e.
	linking := make([]int, 0, w*len(lay.capDCs))
	for t := 0; t < w; t++ {
		for _, li := range lay.capDCs {
			gb.StartRow()
			rhs := s.Capacity[li]
			for i, p := range s.Providers {
				for pi, pl := range lay.pairsL[i] {
					if pl != li {
						continue
					}
					rhs -= p.ServerSize * lay.x0[i][li][lay.pairsV[i][pi]]
					gb.Add(lay.varIdx(i, t, pi), p.ServerSize)
				}
			}
			hVec[row] = rhs
			linking = append(linking, row)
			row++
		}
	}
	gMat, err := gb.Build()
	if err != nil {
		return nil, fmt.Errorf("SWP constraint assembly: %w", err)
	}

	ses, err := qp.NewSession(&qp.Problem{Q: qMat, C: cVec, G: gMat, H: hVec, Linking: linking}, qp.DefaultOptions())
	var res *qp.Result
	if err == nil {
		res, err = ses.Solve(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("SWP QP (n=%d, m=%d): %w", n, m, err)
	}

	out := &SWPResult{
		Outcomes:      make([]Outcome, len(s.Providers)),
		QPIterations:  res.Iterations,
		CapacityDuals: make([][]float64, w),
	}
	for t := 0; t < w; t++ {
		out.CapacityDuals[t] = make([]float64, lay.l)
		for k, li := range lay.capDCs {
			out.CapacityDuals[t][li] = res.IneqDuals[linking[t*len(lay.capDCs)+k]]
		}
	}
	for i, p := range s.Providers {
		oc, cost := lay.extract(i, p, res.X)
		out.Outcomes[i] = oc
		out.Total += cost
	}
	return out, nil
}

// extract rebuilds provider i's trajectory from the QP solution and
// computes its individual cost. The solution is cumulative, so the
// control is the difference of consecutive levels: u_t = y_t − y_{t−1}.
func (lay *swpLayout) extract(i int, p *Provider, sol linalg.Vector) (Outcome, float64) {
	w := lay.w
	v := p.numLocations()
	oc := Outcome{U: make([]core.State, w), X: make([]core.State, w)}
	prev := lay.x0[i].Clone()
	var cost float64
	for t := 0; t < w; t++ {
		u := make(core.State, lay.l)
		x := make(core.State, lay.l)
		for li := 0; li < lay.l; li++ {
			u[li] = make([]float64, v)
			x[li] = append([]float64(nil), prev[li]...)
		}
		for pi, li := range lay.pairsL[i] {
			vi := lay.pairsV[i][pi]
			uv := sol[lay.varIdx(i, t, pi)]
			if t > 0 {
				uv -= sol[lay.varIdx(i, t-1, pi)]
			}
			u[li][vi] = uv
			x[li][vi] += uv
			if x[li][vi] < 0 {
				x[li][vi] = 0
			}
			cost += p.Prices[t][li]*x[li][vi] + p.ReconfigWeights[li]*uv*uv
		}
		oc.U[t] = u
		oc.X[t] = x
		prev = x
	}
	oc.Cost = cost
	return oc, cost
}
