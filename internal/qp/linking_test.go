package qp

import (
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

// blockAngularQP builds a strictly convex QP of nb diagonal blocks of bs
// variables: Q couples neighbours inside a block, each block has its own
// constraint rows, and nLink coupling rows each touch one variable in
// every block; the costs push most variables up against the coupling
// rows, so they bind. It returns the problem with a band Q (bandwidth
// bs−1) and the coupling rows declared as linking rows.
func blockAngularQP(rng *rand.Rand, nb, bs, nLink int) *Problem {
	n := nb * bs
	q := linalg.NewBandMatrix(n, bs-1)
	for i := 0; i < n; i++ {
		_ = q.Set(i, i, 1+rng.Float64())
		if i%bs != 0 {
			_ = q.Set(i, i-1, -0.3*rng.Float64())
		}
	}
	c := linalg.NewVector(n)
	for i := range c {
		c[i] = rng.NormFloat64() - 1 // most variables want to grow
	}
	m := nb + nLink + n
	gb := linalg.NewSparseBuilder(m, n, 3*n+nLink*nb)
	h := linalg.NewVector(m)
	var linking []int
	row := 0
	for b := 0; b < nb; b++ { // one block row: a demand-like lower bound
		gb.StartRow()
		for j := 0; j < bs; j++ {
			gb.Add(b*bs+j, -(0.5 + rng.Float64()))
		}
		h[row] = -0.2 - rng.Float64()
		row++
	}
	for k := 0; k < nLink; k++ { // coupling rows: a shared capacity
		gb.StartRow()
		for b := 0; b < nb; b++ {
			gb.Add(b*bs+(k+b)%bs, 1)
		}
		h[row] = 0.4 * float64(nb)
		linking = append(linking, row)
		row++
	}
	for i := 0; i < n; i++ { // nonnegativity
		gb.StartRow()
		gb.Add(i, -1)
		row++
	}
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	return &Problem{Q: q, C: c, G: g, H: h, Linking: linking}
}

// gramBandwidth is the half-bandwidth of GᵀDG for any diagonal D: the
// widest column spread of any row of g.
func gramBandwidth(g *linalg.SparseMatrix) int {
	bw := 0
	for i := 0; i < g.Rows(); i++ {
		if cols, _ := g.RowEntries(i); len(cols) > 0 {
			bw = max(bw, cols[len(cols)-1]-cols[0])
		}
	}
	return bw
}

// bandReference is p with every row in the band: Q widened to the band
// G's rows reach (gramBandwidth), no linking rows.
func bandReference(p *Problem) *Problem {
	n, qbw := p.Q.N(), p.Q.Bandwidth()
	q := linalg.NewBandMatrix(n, max(qbw, gramBandwidth(p.G)))
	for i := 0; i < n; i++ {
		for j := max(0, i-qbw); j <= i; j++ {
			_ = q.Set(i, j, p.Q.At(i, j))
		}
	}
	return &Problem{Q: q, C: p.C, G: p.G, H: p.H}
}

// assertSameOptimum compares two solves of one problem: objectives to
// objTol relative, primal points to xTol and duals to 10·xTol.
func assertSameOptimum(t *testing.T, label string, got, want *Result, objTol, xTol float64) {
	t.Helper()
	if d := math.Abs(got.Objective - want.Objective); d > objTol*(1+math.Abs(want.Objective)) {
		t.Fatalf("%s: objective %.15g vs %.15g", label, got.Objective, want.Objective)
	}
	for i := range want.X {
		if d := math.Abs(got.X[i] - want.X[i]); d > xTol*(1+math.Abs(want.X[i])) {
			t.Fatalf("%s: x[%d] = %v, want %v", label, i, got.X[i], want.X[i])
		}
	}
	for i := range want.IneqDuals {
		if d := math.Abs(got.IneqDuals[i] - want.IneqDuals[i]); d > 10*xTol*(1+math.Abs(want.IneqDuals[i])) {
			t.Fatalf("%s: z[%d] = %v, want %v", label, i, got.IneqDuals[i], want.IneqDuals[i])
		}
	}
}

// TestLinkingRowsMatchBandSolve solves block-angular QPs through the
// linking-row Schur path and through the same QP with every row in the
// band, with every other coupling row's coefficients moved off 1 (every
// third seed), which sends their Gram entries through the general pair
// sum instead of the scatter terms.
func TestLinkingRowsMatchBandSolve(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := blockAngularQP(rng, 3+rng.Intn(5), 2+rng.Intn(4), 1+rng.Intn(3))
		if seed%3 == 0 {
			g := denseFromSparse(p.G)
			for i, r := range p.Linking {
				if i%2 == 1 {
					continue
				}
				for j := 0; j < g.Cols(); j++ {
					g.Set(r, j, g.At(r, j)*(0.5+rng.Float64()))
				}
			}
			p.G = sparseFromDense(g)
		}
		got, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("seed %d linking: %v", seed, err)
		}
		want, err := solveOnce(bandReference(p), DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("seed %d band: %v", seed, err)
		}
		assertSameOptimum(t, "linked", got, want, 1e-8, 1e-5)
	}
}

// TestBandRowTooWideIsRejected: a band row wider than Q's declared band
// fails the factorization instead of corrupting it.
func TestBandRowTooWideIsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := blockAngularQP(rng, 4, 3, 1)
	p.Linking = nil // the coupling row now spans every block
	if _, err := solveOnce(p, DefaultOptions(), nil); err == nil {
		t.Fatal("solve with a coupling row inside a too-narrow band succeeded")
	}
}

// TestValidateLinking rejects unsorted or out-of-range linking rows.
func TestValidateLinking(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, lk := range [][]int{{3, 2}, {-1}, {1000}, {4, 4}} {
		p := blockAngularQP(rng, 3, 2, 1)
		p.Linking = lk
		if err := p.Validate(); err == nil {
			t.Fatalf("linking %v accepted", lk)
		}
	}
}
