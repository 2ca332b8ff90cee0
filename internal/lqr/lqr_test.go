package lqr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dspp/internal/linalg"
)

func diagMat(vals ...float64) *linalg.Matrix {
	return linalg.Diag(linalg.VectorOf(vals...))
}

func TestSolveValidation(t *testing.T) {
	good := &Problem{
		Q:       linalg.Identity(2),
		R:       linalg.Identity(2),
		Targets: []linalg.Vector{linalg.VectorOf(1, 1)},
		X0:      linalg.VectorOf(0, 0),
	}
	if _, err := Solve(good); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(p Problem) Problem
	}{
		{"nil Q", func(p Problem) Problem { p.Q = nil; return p }},
		{"R shape", func(p Problem) Problem { p.R = linalg.Identity(3); return p }},
		{"A shape", func(p Problem) Problem { p.A = linalg.Identity(3); return p }},
		{"B shape", func(p Problem) Problem { p.B = linalg.NewMatrix(2, 3); return p }},
		{"empty horizon", func(p Problem) Problem { p.Targets = nil; return p }},
		{"target width", func(p Problem) Problem {
			p.Targets = []linalg.Vector{linalg.VectorOf(1)}
			return p
		}},
		{"x0 width", func(p Problem) Problem { p.X0 = linalg.VectorOf(1); return p }},
		// Note: R = 0 alone is fine — the stage stays strictly convex
		// through the Q-weighted next-state cost. Only Q = R = 0 makes
		// the Riccati step singular.
		{"Q and R both zero", func(p Problem) Problem {
			p.Q = linalg.NewMatrix(2, 2)
			p.R = linalg.NewMatrix(2, 2)
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mutate(*good)
			if _, err := Solve(&bad); !errors.Is(err, ErrBadProblem) {
				t.Errorf("err = %v, want ErrBadProblem", err)
			}
		})
	}
}

func TestSingleStageScalar(t *testing.T) {
	// One step, scalar: min q(x0+u−r)² + ρu² → u* = q·(r−x0)/(q+ρ).
	q, rho, r, x0 := 2.0, 1.0, 10.0, 4.0
	sol, err := Solve(&Problem{
		Q:       diagMat(q),
		R:       diagMat(rho),
		Targets: []linalg.Vector{linalg.VectorOf(r)},
		X0:      linalg.VectorOf(x0),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := q * (r - x0) / (q + rho)
	if math.Abs(sol.U[0][0]-want) > 1e-10 {
		t.Errorf("u = %g, want %g", sol.U[0][0], want)
	}
}

func TestTrackingConvergesToTarget(t *testing.T) {
	// Cheap control, long horizon: the state should settle on the target.
	w := 10
	targets := make([]linalg.Vector, w)
	for i := range targets {
		targets[i] = linalg.VectorOf(5, -3)
	}
	sol, err := Solve(&Problem{
		Q:       linalg.Identity(2),
		R:       diagMat(1e-4, 1e-4),
		Targets: targets,
		X0:      linalg.VectorOf(0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	last := sol.X[w-1]
	if math.Abs(last[0]-5) > 0.01 || math.Abs(last[1]+3) > 0.01 {
		t.Errorf("final state %v, want (5,-3)", last)
	}
}

func TestExpensiveControlStaysPut(t *testing.T) {
	targets := []linalg.Vector{linalg.VectorOf(100), linalg.VectorOf(100)}
	sol, err := Solve(&Problem{
		Q:       diagMat(1e-6),
		R:       diagMat(1e6),
		Targets: targets,
		X0:      linalg.VectorOf(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.U[0][0]) > 1e-3 {
		t.Errorf("u = %g, want ~0 under huge control cost", sol.U[0][0])
	}
}

// buildTrackingQP expands the LQ tracking problem into an unconstrained
// QP min ½uᵀQu + cᵀu over the stacked controls (A = B = I), returning the
// dense Q and c, for cross-validation against the Riccati recursion.
func buildTrackingQP(prob *Problem) (*linalg.Matrix, linalg.Vector, error) {
	n := prob.Q.Rows()
	w := len(prob.Targets)
	dim := n * w
	// x_t = x0 + Σ_{τ<t+1} u_τ. Objective:
	// Σ_t (x_t − r_t)ᵀQ(x_t − r_t) + u_tᵀRu_t.
	qMat := linalg.NewMatrix(dim, dim)
	cVec := linalg.NewVector(dim)
	// Control cost blocks: 2R on the diagonal (QP uses ½uᵀQu).
	for t := 0; t < w; t++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				qMat.Inc(t*n+i, t*n+j, 2*prob.R.At(i, j))
			}
		}
	}
	// Tracking cost: for each t, (x0 + Σ_{τ≤t} u_τ − r_t) through Q.
	for t := 0; t < w; t++ {
		// Precompute e = x0 − r_t.
		e := prob.X0.Clone()
		if err := e.AXPY(-1, prob.Targets[t]); err != nil {
			return nil, nil, err
		}
		qe := linalg.NewVector(n)
		if err := prob.Q.MulVec(e, qe); err != nil {
			return nil, nil, err
		}
		for tau := 0; tau <= t; tau++ {
			for i := 0; i < n; i++ {
				cVec[tau*n+i] += 2 * qe[i]
			}
			for tau2 := 0; tau2 <= t; tau2++ {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						qMat.Inc(tau*n+i, tau2*n+j, 2*prob.Q.At(i, j))
					}
				}
			}
		}
	}
	return qMat, cVec, nil
}

func TestRiccatiMatchesQP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(3)
		w := 1 + rng.Intn(5)
		qDiag := make([]float64, n)
		rDiag := make([]float64, n)
		for i := range qDiag {
			qDiag[i] = 0.5 + rng.Float64()*2
			rDiag[i] = 0.1 + rng.Float64()
		}
		targets := make([]linalg.Vector, w)
		for i := range targets {
			targets[i] = linalg.NewVector(n)
			for j := range targets[i] {
				targets[i][j] = rng.NormFloat64() * 10
			}
		}
		x0 := linalg.NewVector(n)
		for j := range x0 {
			x0[j] = rng.NormFloat64() * 5
		}
		prob := &Problem{
			Q:       linalg.Diag(linalg.VectorOf(qDiag...)),
			R:       linalg.Diag(linalg.VectorOf(rDiag...)),
			Targets: targets,
			X0:      x0,
		}
		sol, err := Solve(prob)
		if err != nil {
			t.Fatalf("trial %d riccati: %v", trial, err)
		}
		qMat, cVec, err := buildTrackingQP(prob)
		if err != nil {
			t.Fatal(err)
		}
		// The QP's optimum solves Q u = −c.
		cVec.Scale(-1)
		u, err := linalg.SolveSPD(qMat, cVec)
		if err != nil {
			t.Fatalf("trial %d qp: %v", trial, err)
		}
		for tIdx := 0; tIdx < w; tIdx++ {
			for i := 0; i < n; i++ {
				got := sol.U[tIdx][i]
				want := u[tIdx*n+i]
				if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("trial %d: u[%d][%d] riccati %g vs qp %g",
						trial, tIdx, i, got, want)
				}
			}
		}
	}
}

func TestNonIdentityDynamics(t *testing.T) {
	// Decaying plant x⁺ = 0.5x + u tracking 10: the steady control must
	// hold u ≈ 0.5·x_ss with x_ss near the target for cheap control.
	w := 20
	targets := make([]linalg.Vector, w)
	for i := range targets {
		targets[i] = linalg.VectorOf(10)
	}
	sol, err := Solve(&Problem{
		A:       diagMat(0.5),
		B:       diagMat(1),
		Q:       diagMat(1),
		R:       diagMat(1e-4),
		Targets: targets,
		X0:      linalg.VectorOf(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	xss := sol.X[w-1][0]
	uss := sol.U[w-1][0]
	if math.Abs(xss-10) > 0.05 {
		t.Errorf("steady state %g, want 10", xss)
	}
	if math.Abs(uss-0.5*10) > 0.3 {
		t.Errorf("steady control %g, want ~5", uss)
	}
}

func TestFeedbackPolicyConsistent(t *testing.T) {
	// Replaying the gains must reproduce the rolled-out controls.
	targets := []linalg.Vector{linalg.VectorOf(3, 1), linalg.VectorOf(1, 4), linalg.VectorOf(0, 0)}
	prob := &Problem{
		Q:       diagMat(1, 2),
		R:       diagMat(0.5, 0.5),
		Targets: targets,
		X0:      linalg.VectorOf(1, -1),
	}
	sol, err := Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	x := prob.X0.Clone()
	for tIdx := range targets {
		u := linalg.NewVector(2)
		if err := sol.Gains[tIdx].MulVec(x, u); err != nil {
			t.Fatal(err)
		}
		if err := u.AXPY(1, sol.Offsets[tIdx]); err != nil {
			t.Fatal(err)
		}
		u.Scale(-1)
		for i := range u {
			if math.Abs(u[i]-sol.U[tIdx][i]) > 1e-10 {
				t.Fatalf("stage %d: policy %v vs rollout %v", tIdx, u, sol.U[tIdx])
			}
		}
		if err := x.AXPY(1, u); err != nil { // A=B=I
			t.Fatal(err)
		}
	}
}

// Property: the Riccati cost never exceeds the cost of the zero-control
// and the greedy full-jump policies (optimality sanity).
func TestQuickRiccatiBeatsHeuristics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2)
		w := 1 + rng.Intn(4)
		qd := make([]float64, n)
		rd := make([]float64, n)
		for i := range qd {
			qd[i] = 0.2 + rng.Float64()
			rd[i] = 0.2 + rng.Float64()
		}
		targets := make([]linalg.Vector, w)
		for i := range targets {
			targets[i] = linalg.NewVector(n)
			for j := range targets[i] {
				targets[i][j] = rng.NormFloat64() * 5
			}
		}
		x0 := linalg.NewVector(n)
		prob := &Problem{
			Q:       linalg.Diag(linalg.VectorOf(qd...)),
			R:       linalg.Diag(linalg.VectorOf(rd...)),
			Targets: targets,
			X0:      x0,
		}
		sol, err := Solve(prob)
		if err != nil {
			return false
		}
		evalPolicy := func(controls []linalg.Vector) float64 {
			x := x0.Clone()
			var cost float64
			for tIdx := 0; tIdx < w; tIdx++ {
				u := controls[tIdx]
				_ = x.AXPY(1, u)
				for i := 0; i < n; i++ {
					d := x[i] - targets[tIdx][i]
					cost += qd[i]*d*d + rd[i]*u[i]*u[i]
				}
			}
			return cost
		}
		// Zero policy.
		zero := make([]linalg.Vector, w)
		for i := range zero {
			zero[i] = linalg.NewVector(n)
		}
		// Greedy full-jump policy.
		greedy := make([]linalg.Vector, w)
		x := x0.Clone()
		for tIdx := 0; tIdx < w; tIdx++ {
			u := targets[tIdx].Clone()
			_ = u.AXPY(-1, x)
			greedy[tIdx] = u
			x = targets[tIdx].Clone()
		}
		tol := 1e-8 * (1 + math.Abs(sol.Cost))
		return sol.Cost <= evalPolicy(zero)+tol && sol.Cost <= evalPolicy(greedy)+tol
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(73))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
