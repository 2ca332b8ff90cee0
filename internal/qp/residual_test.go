package qp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dspp/internal/linalg"
)

// horizonShapedQP builds a QP with the shape of the MPC horizon problem:
// l DCs, v locations and w steps, each location served by a random subset
// of the DCs. The variables are cumulative server levels in location
// blocks (time-major inside a block); Q is the small reconfiguration
// curvature between consecutive steps of a pair, c the DC prices. Each
// step has one demand row per location (coefficients 1/SLA ≈ 125–250),
// one capacity row per DC — a linking row when it spans more than one
// location — and a nonnegativity row per pair. Demand is 60% of a level
// every location can meet at once.
func horizonShapedQP(rng *rand.Rand, l, v, w int) *Problem {
	type pair struct {
		dc   int
		aInv float64
	}
	locPairs := make([][]pair, v)
	for j := range locPairs {
		for _, i := range rng.Perm(l)[:1+rng.Intn(l)] {
			locPairs[j] = append(locPairs[j], pair{i, 1 / (0.004 + 0.004*rng.Float64())})
		}
	}
	recon, price, caps := make([]float64, l), make([]float64, l), make([]float64, l)
	for i := range recon {
		recon[i] = 1e-5 + 1e-4*rng.Float64()
		price[i] = 0.02 + 0.1*rng.Float64()
		caps[i] = 500 + 1500*rng.Float64()
	}
	start := make([]int, v+1)
	widest := 0
	for j, ps := range locPairs {
		start[j+1] = start[j] + len(ps)*w
		widest = max(widest, len(ps))
	}
	n := start[v]
	col := func(j, k, t int) int { return start[j] + t*len(locPairs[j]) + k }
	bw := widest - 1
	if w > 1 {
		bw = widest
	}
	q := linalg.NewBandMatrix(n, bw)
	c := linalg.NewVector(n)
	served := make([]float64, l)
	for j, ps := range locPairs {
		for k, pr := range ps {
			served[pr.dc]++
			c2 := 2 * recon[pr.dc]
			for t := 0; t < w; t++ {
				idx := col(j, k, t)
				c[idx] = price[pr.dc]
				if t < w-1 {
					_ = q.Set(idx, idx, 2*c2)
					_ = q.Set(col(j, k, t+1), idx, -c2)
				} else {
					_ = q.Set(idx, idx, c2)
				}
			}
		}
	}
	level := math.Inf(1)
	for _, ps := range locPairs {
		var ceil float64
		for _, pr := range ps {
			ceil += caps[pr.dc] / served[pr.dc] * pr.aInv
		}
		level = math.Min(level, ceil)
	}
	dcs := 0
	for _, k := range served {
		if k > 0 {
			dcs++
		}
	}
	gb := linalg.NewSparseBuilder(w*(v+dcs)+n, n, 3*n)
	var h []float64
	var linking []int
	for t := 0; t < w; t++ {
		for j, ps := range locPairs {
			gb.StartRow()
			for k, pr := range ps {
				gb.Add(col(j, k, t), -pr.aInv)
			}
			h = append(h, -0.6*level*(0.8+0.2*rng.Float64()))
		}
		for i := 0; i < l; i++ {
			if served[i] == 0 {
				continue
			}
			gb.StartRow()
			for j, ps := range locPairs {
				for k, pr := range ps {
					if pr.dc == i {
						gb.Add(col(j, k, t), 1)
					}
				}
			}
			if served[i] > 1 {
				linking = append(linking, len(h))
			}
			h = append(h, caps[i])
		}
		for j, ps := range locPairs {
			for k := range ps {
				gb.StartRow()
				gb.Add(col(j, k, t), -1)
				h = append(h, 0)
			}
		}
	}
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	return &Problem{Q: q, C: c, G: g, H: h, Linking: linking}
}

// residualCheck compares the incrementally tracked residuals with a
// fresh computeResiduals after every incremental update, leaving the state
// (and so the solve's trajectory) untouched. Drift is measured in units of
// rounding, eps times the largest magnitude the tracked residual has
// combined so far in the solve:
//
//   - rd: |Q||x| + |c| + |G|ᵀ|z| and the step terms |Q||dx| + |G|ᵀ|dz|.
//     The Newton-identity update (band-only problems) is exact only to the
//     backward error of the direction solve, so there the unit also covers
//     the KKT product |G|ᵀW|G||dx| that solve formed.
//   - rp: |G||x| + |s| + |h| and the step terms |G||dx| + |ds|.
type residualCheck struct {
	t       *testing.T
	g       []float64 // |G|, dense row-major
	updates int
	// Running magnitudes of the current solve.
	rdMag, kktMag, rpMag float64
	// Worst drift seen, in units of rounding.
	worstD, worstP float64
}

func newResidualCheck(t *testing.T, p *Problem) *residualCheck {
	n, m := p.NumVars(), p.NumIneq()
	g := make([]float64, m*n)
	for k := 0; k < m; k++ {
		for j := 0; j < n; j++ {
			g[k*n+j] = math.Abs(p.G.At(k, j))
		}
	}
	return &residualCheck{t: t, g: g}
}

// reset starts a new solve's magnitude scales.
func (rc *residualCheck) reset() { rc.rdMag, rc.kktMag, rc.rpMag = 0, 0, 0 }

func (rc *residualCheck) observe(st *ipmState) {
	t := rc.t
	rc.updates++
	p, n, m, g := st.p, st.n, st.m, rc.g
	rdInc := append(linalg.Vector(nil), st.rd[:n]...)
	rpInc := append(linalg.Vector(nil), st.rp[:m]...)
	if st.rdNorm != rdInc.NormInf() || st.rpNorm != rpInc.NormInf() {
		t.Fatalf("tracked norms rd %g rp %g, vectors rd %g rp %g", st.rdNorm, st.rpNorm, rdInc.NormInf(), rpInc.NormInf())
	}
	gx, gdx := make([]float64, m), make([]float64, m)
	for k := 0; k < m; k++ {
		for j, a := range g[k*n : (k+1)*n] {
			gx[k] += a * math.Abs(st.x[j])
			gdx[k] += a * math.Abs(st.dx[j])
		}
		rc.rpMag = math.Max(rc.rpMag, max(gx[k], gdx[k], math.Abs(st.s[k]), math.Abs(st.ds[k]), math.Abs(p.H[k])))
	}
	for i := 0; i < n; i++ {
		var qx, qdx, gz, gdz, kkt float64
		for j := 0; j < n; j++ {
			a := math.Abs(p.Q.At(i, j))
			qx += a * math.Abs(st.x[j])
			qdx += a * math.Abs(st.dx[j])
		}
		for k := 0; k < m; k++ {
			a := g[k*n+i]
			gz += a * math.Abs(st.z[k])
			gdz += a * math.Abs(st.dz[k])
			kkt += a * st.w[k] * gdx[k]
		}
		rc.rdMag = math.Max(rc.rdMag, max(qx, qdx, gz, gdz, math.Abs(p.C[i])))
		rc.kktMag = math.Max(rc.kktMag, kkt)
	}

	qxSaved := append(linalg.Vector(nil), st.qx[:n]...)
	obj, fresh := st.obj, st.fresh
	st.computeResiduals()
	var dd, dp float64
	for i := range rdInc {
		dd = math.Max(dd, math.Abs(rdInc[i]-st.rd[i]))
	}
	for k := range rpInc {
		dp = math.Max(dp, math.Abs(rpInc[k]-st.rp[k]))
	}
	unitD := rc.rdMag
	if st.link.k == 0 {
		unitD += rc.kktMag
	}
	rc.worstD = math.Max(rc.worstD, dd/(eps*unitD))
	rc.worstP = math.Max(rc.worstP, dp/(eps*rc.rpMag))
	copy(st.rd, rdInc)
	copy(st.rp, rpInc)
	copy(st.qx, qxSaved)
	st.rdNorm, st.rpNorm = rdInc.NormInf(), rpInc.NormInf()
	st.obj, st.fresh = obj, fresh
}

// eps is the float64 unit roundoff.
const eps = 0x1p-52

// TestIncrementalResidualsMatchRecompute checks the incremental residual
// fast path against its reference. Each problem is solved cold and then
// warm ten times while its right-hand side drifts by 2% per solve, the
// way MPC periods re-solve from the previous plan. After every
// incremental update the tracked rd and rp must match a fresh
// computeResiduals within rounding (see residualCheck). The linking
// problems — the BenchmarkSolveWarm blocks8x8_link4 shape and horizon-
// shaped problems whose capacity rows go through the Schur complement —
// advance rd from its definition; the band-only problems (a dense random
// QP and the same horizon problems with every row in the band) advance it
// by the Newton identity. Advancing the linking path by the Newton
// identity drifts by 2e5–1e6 units here.
func TestIncrementalResidualsMatchRecompute(t *testing.T) {
	// ≤ 15 updates between full recomputations, each adding a few
	// roundings; measured drift stays under 4 units.
	const tol = 64
	type tcase struct {
		name string
		p    func() *Problem
	}
	cases := []tcase{
		{"blocks8x8_link4", func() *Problem { return blockAngularQP(rand.New(rand.NewSource(42)), 8, 8, 4) }},
		{"band-only", func() *Problem { return randomFeasibleQP(rand.New(rand.NewSource(42)), 50, 100) }},
	}
	for seed := int64(1); seed <= 4; seed++ {
		horizon := func() *Problem {
			rng := rand.New(rand.NewSource(seed))
			return horizonShapedQP(rng, 2+rng.Intn(5), 2+rng.Intn(7), 1+rng.Intn(4))
		}
		cases = append(cases,
			tcase{fmt.Sprintf("horizon-%d-linking", seed), horizon},
			tcase{fmt.Sprintf("horizon-%d-band-only", seed), func() *Problem { return bandReference(horizon()) }})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.p()
			rc := newResidualCheck(t, p)
			residualUpdateHook = rc.observe
			defer func() { residualUpdateHook = nil }()
			res, err := solveOnce(p, DefaultOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			h0 := append(linalg.Vector(nil), p.H...)
			for k := 0; k < 10; k++ {
				for i := range p.H {
					p.H[i] = h0[i] * (1 + 0.02*rng.NormFloat64())
				}
				rc.reset()
				if res, err = solveOnce(p, DefaultOptions(), &WarmStart{X: res.X, Z: res.IneqDuals}); err != nil {
					t.Fatalf("warm solve %d: %v", k, err)
				}
			}
			if rc.updates == 0 {
				t.Fatal("no incremental residual update ran")
			}
			t.Logf("%d incremental updates; worst drift rd %.3g rp %.3g units of rounding", rc.updates, rc.worstD, rc.worstP)
			if rc.worstD > tol || rc.worstP > tol {
				t.Fatalf("incremental residuals drifted from a fresh recomputation by rd %.3g, rp %.3g units of rounding (limit %d)",
					rc.worstD, rc.worstP, tol)
			}
		})
	}
}
