package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dspp/internal/linalg"
)

// mustMatrix builds a dense matrix from equal-length rows.
func mustMatrix(t *testing.T, rows [][]float64) *linalg.Matrix {
	t.Helper()
	var cols int
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	m := linalg.NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			t.Fatalf("row %d has %d cols, want %d", i, len(r), cols)
		}
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// vectorOf returns a vector holding a copy of the given values.
func vectorOf(vals ...float64) linalg.Vector {
	return append(linalg.NewVector(0), vals...)
}

// scaled returns a copy of v scaled by a.
func scaled(v linalg.Vector, a float64) linalg.Vector {
	out := linalg.NewVector(len(v))
	for i, x := range v {
		out[i] = a * x
	}
	return out
}

// sparseFromDense converts a dense matrix to CSR, dropping exact zeros.
func sparseFromDense(d *linalg.Matrix) *linalg.SparseMatrix {
	b := linalg.NewSparseBuilder(d.Rows(), d.Cols(), 0)
	for i := 0; i < d.Rows(); i++ {
		b.StartRow()
		for j := 0; j < d.Cols(); j++ {
			if v := d.At(i, j); v != 0 {
				b.Add(j, v)
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err) // rows in order, columns strictly increasing
	}
	return m
}

// denseFromSparse is sparseFromDense's inverse.
func denseFromSparse(s *linalg.SparseMatrix) *linalg.Matrix {
	d := linalg.NewMatrix(s.Rows(), s.Cols())
	for i := 0; i < s.Rows(); i++ {
		cols, vals := s.RowEntries(i)
		for k, j := range cols {
			d.Set(i, j, vals[k])
		}
	}
	return d
}

// fullBand packs the symmetric matrix d into a band as wide as d, so the
// KKT band covers any row of G.
func fullBand(d *linalg.Matrix) *linalg.BandMatrix {
	n := d.Rows()
	b := linalg.NewBandMatrix(n, n-1)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			_ = b.Set(i, j, d.At(i, j))
		}
	}
	return b
}

// denseQP builds the solver's problem from dense test data: Q as a full
// band, G in CSR.
func denseQP(t *testing.T, q [][]float64, c linalg.Vector, g [][]float64, h linalg.Vector) *Problem {
	t.Helper()
	return &Problem{Q: fullBand(mustMatrix(t, q)), C: c, G: sparseFromDense(mustMatrix(t, g)), H: h}
}

// solveOnce solves p on a fresh one-use session, from warm when non-nil:
// the solver as a caller without a loop uses it.
func solveOnce(p *Problem, opts Options, warm *WarmStart) (*Result, error) {
	ses, err := NewSession(p, opts)
	if err != nil {
		return nil, err
	}
	return ses.Solve(warm)
}

func solveOK(t *testing.T, p *Problem) *Result {
	t.Helper()
	res, err := solveOnce(p, DefaultOptions(), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestUnconstrainedQP(t *testing.T) {
	// min ½(x₁²+x₂²) − x₁ − 2x₂ under a box that never binds →
	// x = (1, 2) with zero duals.
	p := denseQP(t, [][]float64{{1, 0}, {0, 1}}, vectorOf(-1, -2),
		[][]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}, vectorOf(10, 10, 10, 10))
	res := solveOK(t, p)
	if math.Abs(res.X[0]-1) > 1e-8 || math.Abs(res.X[1]-2) > 1e-8 {
		t.Errorf("x = %v, want (1,2)", res.X)
	}
	for i, z := range res.IneqDuals {
		if z > 1e-8 {
			t.Errorf("inactive dual %d = %g, want ~0", i, z)
		}
	}
}

func TestBoxConstrainedQP(t *testing.T) {
	// min ½(x−3)² s.t. 0 ≤ x ≤ 1  →  x = 1, active upper bound,
	// dual of x ≤ 1 equals 2 (gradient x−3 at 1 is −2 → z = 2).
	p := denseQP(t, [][]float64{{1}}, vectorOf(-3), [][]float64{{1}, {-1}}, vectorOf(1, 0))
	res := solveOK(t, p)
	if math.Abs(res.X[0]-1) > 1e-6 {
		t.Errorf("x = %v, want 1", res.X)
	}
	if math.Abs(res.IneqDuals[0]-2) > 1e-5 {
		t.Errorf("upper-bound dual = %g, want 2", res.IneqDuals[0])
	}
	if res.IneqDuals[1] > 1e-6 {
		t.Errorf("inactive dual = %g, want ~0", res.IneqDuals[1])
	}
}

func TestProjectionOntoSimplex(t *testing.T) {
	// min ½||x − y||² s.t. 1ᵀx ≤ 1, x ≥ 0, y = (0.9, 0.6, −0.5). The
	// projection onto x ≥ 0 alone sums to 1.5, so 1ᵀx ≤ 1 binds and the
	// answer is the projection onto the simplex: (0.65, 0.35, 0).
	y := vectorOf(0.9, 0.6, -0.5)
	c := scaled(y, -1)
	p := denseQP(t, [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, c,
		[][]float64{{1, 1, 1}, {-1, 0, 0}, {0, -1, 0}, {0, 0, -1}}, vectorOf(1, 0, 0, 0))
	res := solveOK(t, p)
	want := []float64{0.65, 0.35, 0}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Errorf("x[%d] = %g, want %g", i, res.X[i], want[i])
		}
	}
}

func TestLPviaQP(t *testing.T) {
	// Pure LP (Q = 0): min −x₁−x₂ s.t. x₁+2x₂ ≤ 4, x ≥ 0, x₁ ≤ 3.
	// Optimum at vertex (3, 0.5) with objective −3.5.
	p := denseQP(t, [][]float64{{0, 0}, {0, 0}}, vectorOf(-1, -1),
		[][]float64{
			{1, 2},
			{-1, 0},
			{0, -1},
			{1, 0},
		}, vectorOf(4, 0, 0, 3))
	res := solveOK(t, p)
	if math.Abs(res.X[0]-3) > 1e-5 || math.Abs(res.X[1]-0.5) > 1e-5 {
		t.Errorf("x = %v, want (3, 0.5)", res.X)
	}
	if math.Abs(res.Objective+3.5) > 1e-5 {
		t.Errorf("obj = %g, want -3.5", res.Objective)
	}
}

func TestValidateErrors(t *testing.T) {
	one := linalg.NewBandMatrix(1, 0)
	_ = one.Set(0, 0, 1)
	row := sparseFromDense(mustMatrix(t, [][]float64{{1}}))
	cases := []struct {
		name string
		p    *Problem
	}{
		{"nil Q", &Problem{C: vectorOf(1), G: row, H: vectorOf(1)}},
		{"nil G", &Problem{Q: one, C: vectorOf(0)}},
		{"G without rows", &Problem{Q: one, C: vectorOf(0),
			G: sparseFromDense(linalg.NewMatrix(0, 1)), H: vectorOf()}},
		{"c wrong len", &Problem{Q: one, C: vectorOf(1, 2), G: row, H: vectorOf(1)}},
		{"G without h", &Problem{Q: one, C: vectorOf(0), G: row}},
		{"G col mismatch", &Problem{Q: one, C: vectorOf(0),
			G: sparseFromDense(linalg.NewMatrix(1, 2)), H: vectorOf(1)}},
		{"G row mismatch", &Problem{Q: one, C: vectorOf(0),
			G: sparseFromDense(linalg.NewMatrix(2, 1)), H: vectorOf(1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := solveOnce(tc.p, DefaultOptions(), nil); !errors.Is(err, ErrBadProblem) {
				t.Errorf("err = %v, want ErrBadProblem", err)
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	d := DefaultOptions()
	if o != d {
		t.Errorf("withDefaults() = %+v, want %+v", o, d)
	}
	custom := Options{MaxIterations: 7, Tolerance: 1e-4}
	if got := custom.withDefaults(); got != custom {
		t.Errorf("custom options altered: %+v", got)
	}
}

// checkKKT verifies the KKT conditions of a solution within tolerance.
func checkKKT(t *testing.T, p *Problem, res *Result, tol float64) {
	t.Helper()
	n := p.NumVars()
	// Stationarity: Qx + c + Gᵀz ≈ 0.
	grad := linalg.NewVector(n)
	if err := p.Q.MulVec(res.X, grad); err != nil {
		t.Fatal(err)
	}
	for i := range grad {
		grad[i] += p.C[i]
	}
	gtz := linalg.NewVector(n)
	if err := p.G.MulVecT(res.IneqDuals, gtz); err != nil {
		t.Fatal(err)
	}
	for i := range grad {
		grad[i] += gtz[i]
	}
	if g := grad.NormInf(); g > tol {
		t.Errorf("stationarity violated: %g", g)
	}
	// Primal feasibility + complementary slackness.
	gx := linalg.NewVector(p.NumIneq())
	if err := p.G.MulVec(res.X, gx); err != nil {
		t.Fatal(err)
	}
	for i := range gx {
		slack := p.H[i] - gx[i]
		if slack < -tol {
			t.Errorf("ineq %d violated by %g", i, -slack)
		}
		if res.IneqDuals[i] < -tol {
			t.Errorf("dual %d negative: %g", i, res.IneqDuals[i])
		}
		if cs := math.Abs(slack * res.IneqDuals[i]); cs > tol*10 {
			t.Errorf("complementarity %d: %g", i, cs)
		}
	}
}

func TestKKTOnRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(2*n)
		p := randomFeasibleQP(rng, n, m)
		res, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkKKT(t, p, res, 1e-5)
	}
}

// randomFeasibleQP builds a strictly convex QP whose feasible set contains
// the origin's neighbourhood (h ≥ 1), so it is always solvable. G's rows
// are dense, so Q, diagonal, is stored in a full band.
func randomFeasibleQP(rng *rand.Rand, n, m int) *Problem {
	q := linalg.NewBandMatrix(n, n-1)
	for i := 0; i < n; i++ {
		_ = q.Set(i, i, 0.5+rng.Float64()*2)
	}
	c := linalg.NewVector(n)
	for i := range c {
		c[i] = rng.NormFloat64() * 2
	}
	g := linalg.NewMatrix(m, n)
	h := linalg.NewVector(m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, rng.NormFloat64())
		}
		h[i] = 1 + rng.Float64()*3
	}
	return &Problem{Q: q, C: c, G: sparseFromDense(g), H: h}
}

// bruteForceQP solves a small QP by enumerating active sets. For each
// subset S of inequality constraints, solve the equality-constrained QP
// treating S as tight; keep the best feasible KKT point.
func bruteForceQP(p *Problem) (linalg.Vector, float64, bool) {
	n := p.NumVars()
	m := p.NumIneq()
	g := denseFromSparse(p.G)
	best := math.Inf(1)
	var bestX linalg.Vector
	for mask := 0; mask < (1 << m); mask++ {
		var rows [][]float64
		var rhs []float64
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				row := make([]float64, n)
				for j := 0; j < n; j++ {
					row[j] = g.At(i, j)
				}
				rows = append(rows, row)
				rhs = append(rhs, p.H[i])
			}
		}
		if len(rows) > n {
			continue // overdetermined active set
		}
		x, obj, ok := equalityQP(p.Q, p.C, rows, rhs)
		if !ok {
			continue
		}
		// Check feasibility of inactive constraints.
		gx := linalg.NewVector(m)
		if err := p.G.MulVec(x, gx); err != nil {
			continue
		}
		feasible := true
		for i := 0; i < m; i++ {
			if gx[i] > p.H[i]+1e-7 {
				feasible = false
				break
			}
		}
		if feasible && obj < best {
			best = obj
			bestX = x
		}
	}
	return bestX, best, bestX != nil
}

// equalityQP solves min ½xᵀQx + cᵀx s.t. a x = b directly from its KKT
// system [Q aᵀ; a 0] [x; y] = [−c; b], and returns x and the objective.
// ok is false when the system is singular.
func equalityQP(q *linalg.BandMatrix, c linalg.Vector, a [][]float64, b []float64) (x linalg.Vector, obj float64, ok bool) {
	n, k := q.N(), len(a)
	kkt := linalg.NewMatrix(n+k, n+k)
	rhs := linalg.NewVector(n + k)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kkt.Set(i, j, q.At(i, j))
		}
		rhs[i] = -c[i]
	}
	for r, row := range a {
		for j, v := range row {
			kkt.Set(n+r, j, v)
			kkt.Set(j, n+r, v)
		}
		rhs[n+r] = b[r]
	}
	sol, err := luSolve(kkt, rhs)
	if err != nil {
		return nil, 0, false
	}
	x = sol[:n]
	qx := linalg.NewVector(n)
	_ = q.MulVec(x, qx)
	for i := range x {
		obj += x[i] * (0.5*qx[i] + c[i])
	}
	return x, obj, true
}

func TestAgainstActiveSetBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(5)
		p := randomFeasibleQP(rng, n, m)
		res, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, bestObj, ok := bruteForceQP(p)
		if !ok {
			continue
		}
		if res.Objective > bestObj+1e-5*(1+math.Abs(bestObj)) {
			t.Errorf("trial %d: IPM obj %g worse than brute force %g",
				trial, res.Objective, bestObj)
		}
		if res.Objective < bestObj-1e-4*(1+math.Abs(bestObj)) {
			t.Errorf("trial %d: IPM obj %g better than brute force %g (brute-force bug?)",
				trial, res.Objective, bestObj)
		}
	}
}

// Property: for random feasible strictly convex QPs, the solver returns a
// feasible point whose KKT residuals are tiny.
func TestQuickSolverFeasibleAndStationary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(8)
		p := randomFeasibleQP(rng, n, m)
		res, err := solveOnce(p, DefaultOptions(), nil)
		if err != nil {
			return false
		}
		gx := linalg.NewVector(m)
		if err := p.G.MulVec(res.X, gx); err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			if gx[i] > p.H[i]+1e-6 {
				return false
			}
			if res.IneqDuals[i] < -1e-9 {
				return false
			}
		}
		return res.Gap < 1e-6
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMaxIterationsSurfacesError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomFeasibleQP(rng, 5, 10)
	opts := DefaultOptions()
	opts.MaxIterations = 1
	opts.Tolerance = 1e-14
	_, err := solveOnce(p, opts, nil)
	if err != nil && !errors.Is(err, ErrMaxIterations) {
		t.Errorf("err = %v, want nil or ErrMaxIterations", err)
	}
}
