package qp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dspp/internal/linalg"
	"dspp/internal/telemetry"
)

// Solve minimizes the given convex QP with a primal–dual interior-point
// method. On ErrMaxIterations the best iterate found so far is returned
// alongside the error so callers may decide whether it is usable.
func Solve(p *Problem, opts Options) (*Result, error) {
	return SolveWarm(p, opts, nil)
}

// SolveWarm is Solve with an optional warm start. A good warm start — the
// previous MPC plan shifted one period, or the previous best-response
// round's solution — typically cuts the iteration count severalfold; a bad
// one only costs the iterations needed to walk back to the central path.
// A warm start whose dimensions don't match the problem is ignored.
func SolveWarm(p *Problem, opts Options, warm *WarmStart) (*Result, error) {
	return SolveWarmCtx(context.Background(), p, opts, warm)
}

// SolveWarmCtx is SolveWarm with cooperative cancellation: the context is
// polled once per interior-point iteration, so a stuck or slow solve
// terminates within one iteration of ctx expiring. The returned error wraps
// ctx.Err() (not ErrNumerical/ErrMaxIterations), letting callers tell an
// abandoned solve from a failed one.
//
// Each iteration runs one Mehrotra predictor–corrector round: a single
// numeric refactorization of the KKT matrix (into packed band storage,
// laid out once per shape by the symbolic phase), an affine predictor
// solve, the σ = (μ_aff/μ)³ centering heuristic, and a corrector solve
// against the same factorization. Primal and dual step lengths are chosen
// separately — the standard Mehrotra refinement, worth a few iterations on
// most problems because a short slack step no longer truncates the dual
// step. Between iterations the residuals are updated incrementally from
// the Newton identities (an O(n·bw + m) pass instead of fresh matvecs);
// any convergence verdict reached on incremental residuals is confirmed
// against fully recomputed ones before it is accepted.
func SolveWarmCtx(ctx context.Context, p *Problem, opts Options, warm *WarmStart) (*Result, error) {
	if opts.Hooks == nil {
		// Disabled telemetry takes the direct path: a nil stats pointer,
		// no span, no time reads — the hot loop is bit-identical to the
		// uninstrumented solver.
		return solveWarmCtx(ctx, p, opts, warm, nil)
	}
	hooks := opts.Hooks
	sp := hooks.Tracer.Start(telemetry.SpanQPSolve, telemetry.SpanIDFromContext(ctx))
	var stats solveStats
	res, err := solveWarmCtx(ctx, p, opts, warm, &stats)
	flushQPTelemetry(hooks, sp, warm, res, err, &stats)
	return res, err
}

// solveStats accumulates per-solve counts the instrumented wrapper flushes
// into the telemetry hooks after the solve returns. The iteration loop
// touches it through a nil-guarded pointer, so the disabled path costs a
// predictable branch per site and nothing else.
type solveStats struct {
	correctorSkips int
	factorizations int
	bumps          int
}

// flushQPTelemetry publishes one finished solve into the hooks' counters
// and closes its qp_solve span with outcome attributes.
func flushQPTelemetry(h *telemetry.QPHooks, sp *telemetry.Span, warm *WarmStart, res *Result, err error, stats *solveStats) {
	h.Solves.Inc()
	wasWarm := 0.0
	if warm != nil {
		wasWarm = 1
		h.WarmStarts.Inc()
	} else {
		h.ColdStarts.Inc()
	}
	iters := 0
	if res != nil {
		iters = res.Iterations
		h.Iterations.Add(float64(iters))
		h.IterationsHist.Observe(float64(iters))
	}
	h.CorrectorSkips.Add(float64(stats.correctorSkips))
	h.Factorizations.Add(float64(stats.factorizations))
	h.FactorBumps.Add(float64(stats.bumps))
	outcome := "ok"
	switch {
	case err == nil:
	case errors.Is(err, ErrNumerical):
		h.NumericalFailures.Inc()
		outcome = "numerical"
	case errors.Is(err, ErrMaxIterations):
		h.MaxIter.Inc()
		outcome = "maxiter"
	case errors.Is(err, ErrDeadline):
		h.DeadlineReturns.Inc()
		outcome = "deadline"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		outcome = "canceled"
	default:
		outcome = "error"
	}
	sp.SetAttr(
		telemetry.Num("iterations", float64(iters)),
		telemetry.Num("factorizations", float64(stats.factorizations)),
		telemetry.Num("corrector_skips", float64(stats.correctorSkips)),
		telemetry.Num("bumps", float64(stats.bumps)),
		telemetry.Num("warm", wasWarm),
		telemetry.Str("outcome", outcome),
	)
	sp.End()
}

func solveWarmCtx(ctx context.Context, p *Problem, opts Options, warm *WarmStart, stats *solveStats) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	n := p.NumVars()
	m := p.NumIneq()
	pe := p.NumEq()

	if m == 0 {
		return solveEqualityOnly(p, opts)
	}

	st := newIPMState(p, n, m, pe)
	defer st.release()
	return runIPM(ctx, st, opts, warm, stats)
}

// runIPM initializes the iterate from the (optional) warm start and runs
// the Mehrotra predictor–corrector loop. It is shared by the pooled
// one-shot path (solveWarmCtx) and the persistent Session path; everything
// the two do differently — state lifetime, result storage — hangs off st.
func runIPM(ctx context.Context, st *ipmState, opts Options, warm *WarmStart, stats *solveStats) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st.initPoint(warm)
	p := st.p
	m := st.m
	st.szDot = linalg.DotProd(st.s[:m], st.z[:m])

	st.computeResiduals()
	st.prepareAnytime(opts.Anytime)
	if st.anytime {
		// The starting point (warm-start plan or the cold origin) is the
		// first anytime candidate: even a deadline that fires before one
		// full iteration completes still has something implementable.
		st.snapshotAnytime(0)
	}
	// The per-iteration deadline check reads the wall clock rather than
	// relying on ctx.Err() alone: ctx.Err() flips only after the context's
	// timer goroutine runs, and on a starved scheduler (GOMAXPROCS=1 with
	// this loop spinning) that can lag the actual deadline by the runtime's
	// forced-preemption interval (~10ms) — far beyond the budgets a
	// deadline-bounded controller works with.
	deadline, hasDeadline := ctx.Deadline()
	for iter := 0; iter < opts.MaxIterations; iter++ {
		err := ctx.Err()
		if err == nil && hasDeadline && !time.Now().Before(deadline) {
			err = context.DeadlineExceeded
		}
		if err != nil {
			if st.anytime && st.snapValid {
				return st.anytimeResult(iter), fmt.Errorf("qp: iteration %d: %w: %w", iter, ErrDeadline, err)
			}
			return nil, fmt.Errorf("qp: iteration %d: %w", iter, err)
		}
		mu := st.gap()
		if st.converged(opts.Tolerance, mu) {
			// Incremental residuals drift by rounding; never declare
			// victory off them without an exact recomputation.
			if st.fresh {
				return st.result(p, iter, mu)
			}
			st.computeResiduals()
			if st.converged(opts.Tolerance, mu) {
				return st.result(p, iter, mu)
			}
		}

		if err := st.factorKKT(opts.Regularize); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", iter, err)
		}
		if stats != nil {
			stats.factorizations++
			if st.bumped {
				stats.bumps++
			}
		}

		// Affine (predictor) direction: pure Newton on the residuals with
		// rc = s∘z (no centering).
		rcv, sv, zv := st.rc[:m], st.s[:m], st.z[:m]
		for i := range rcv {
			rcv[i] = sv[i] * zv[i]
		}
		affP, affD, err := st.solveDirection()
		if err != nil {
			return nil, fmt.Errorf("iteration %d (affine): %w", iter, err)
		}
		muAff := st.gapAfter(affP, affD)

		// Centering parameter (Mehrotra heuristic).
		sigma := 0.0
		if mu > 0 {
			r := muAff / mu
			sigma = r * r * r
		}

		// Corrector direction: rc = s∘z + Δs_aff∘Δz_aff − σμ·1, solved
		// against the predictor's factorization. When the affine direction
		// already takes the full step and drops the gap below tolerance —
		// the common tail of warm-started MPC and best-response solves —
		// the correction cannot improve an already-accepted step, so the
		// extra back-solve is skipped.
		alphaP, alphaD := affP, affD
		if muAff >= opts.Tolerance || affP < 1 || affD < 1 {
			dsv, dzv := st.ds[:m], st.dz[:m]
			for i := range rcv {
				rcv[i] = sv[i]*zv[i] + dsv[i]*dzv[i] - sigma*mu
			}
			if alphaP, alphaD, err = st.solveDirection(); err != nil {
				return nil, fmt.Errorf("iteration %d (corrector): %w", iter, err)
			}
		} else if stats != nil {
			stats.correctorSkips++
		}
		// Adaptive fraction-to-boundary (Mehrotra): back off by StepScale
		// while far from the solution, but let η → 1 as the relative gap
		// closes — the conservative margin is pure slowdown in the tail,
		// where the affine direction is nearly exact.
		eta := opts.StepScale
		if g := 1 - mu/(1+math.Abs(st.obj)); g > eta {
			eta = g
			if eta > 0.9999 {
				eta = 0.9999
			}
		}
		alphaP *= eta
		alphaD *= eta
		if alphaP > 1 {
			alphaP = 1
		}
		if alphaD > 1 {
			alphaD = 1
		}
		floored := st.step(alphaP, alphaD)
		// The Newton identities give the next residuals in O(n·bw + m):
		//   rd⁺ = (1−αd)·rd + (αp−αd)·Q·dx − αd·reg·dx
		//   rp⁺ = (1−αp)·rp,  re⁺ = (1−αp)·re
		// They only hold for the system actually solved: recompute in full
		// when the boundary floor clipped s or z (a nonlinear update), when
		// the factorization needed a regularization bump (reg no longer the
		// static value), with equalities present (the Schur regularization
		// perturbs the re identity), and periodically to flush rounding.
		if st.q > 0 || floored || st.bumped || iter&0xf == 0xf {
			st.computeResiduals()
		} else {
			st.updateResiduals(alphaP, alphaD, opts.Regularize)
		}
		if st.anytime {
			st.snapshotAnytime(iter + 1)
		}
	}

	st.computeResiduals()
	mu := st.gap()
	res, err := st.result(p, opts.MaxIterations, mu)
	if err != nil {
		return nil, err
	}
	// Accept a slightly looser solution before reporting failure: MPC loops
	// prefer a usable near-optimal control to an error.
	if st.converged(opts.Tolerance*1e4, mu) {
		return res, nil
	}
	return res, fmt.Errorf("gap=%.3g primal=%.3g dual=%.3g: %w",
		mu, res.PrimalRes, res.DualRes, ErrMaxIterations)
}

// ipmState carries the working vectors of the interior-point iteration.
type ipmState struct {
	p       *Problem
	n, m, q int // vars, inequalities, equalities

	x, s, z, y linalg.Vector // primal, slack, ineq dual, eq dual

	rd, rp, re, rc linalg.Vector // residuals
	dx, ds, dz, dy linalg.Vector // search direction

	qx   linalg.Vector // Q·x at the current iterate (objective + rd)
	w    linalg.Vector // z/s weights
	sInv linalg.Vector // 1/s, refreshed by factorKKT for the direction solves
	// hBand is the band part of the KKT matrix, H_b = Q + G_bᵀDG_b over
	// the rows of G that are not linking rows, in packed band storage: the
	// symbolic phase (newIPMState) shapes it once per solve, the numeric
	// phase (factorKKT) refills it in place every iteration.
	hBand *linalg.BandMatrix
	// qBand is Q's band in packed storage: a band Q itself, or qOwn holding
	// a dense Q's band copied once per solve. The per-iteration KKT refill
	// is then one contiguous copy and the residual products walk packed
	// rows instead of striding across dense ones.
	qBand *linalg.BandMatrix
	qOwn  *linalg.BandMatrix
	hBW   int // half-bandwidth of H_b (n−1 when dense)
	// Constant per problem, hoisted out of the per-iteration convergence
	// test: ‖c‖∞ and ‖h‖∞.
	cNorm, hNorm float64
	// obj is the objective at the current iterate, maintained alongside the
	// residuals.
	obj float64
	// szDot caches sᵀz, maintained by initPoint and step so gap() costs
	// nothing per iteration.
	szDot float64
	// rdNorm/rpNorm/reNorm cache the ∞-norms of the residuals, tracked in
	// the same passes that write them; converged() and result() read the
	// cached values instead of rescanning.
	rdNorm, rpNorm, reNorm float64
	// fresh marks the residuals as exactly recomputed at the current
	// iterate (vs. incrementally updated).
	fresh bool
	// anytime snapshot state (Options.Anytime only): the best-merit iterate
	// seen so far, copied out each time the merit improves so a deadline
	// return never hands back a worse point than one already visited. The
	// vectors are grown lazily by prepareAnytime, so the default path keeps
	// its exact allocation count.
	anytime   bool
	snapValid bool
	snapIter  int
	snapObj   float64
	snapMu    float64
	snapMerit float64
	snapRdN   float64
	snapRpN   float64
	snapReN   float64
	snapX     linalg.Vector
	snapZ     linalg.Vector
	snapY     linalg.Vector
	// bumped records that the last factorization needed the emergency
	// regularization bump, invalidating the incremental residual identity.
	bumped bool
	// reg is the static regularization of the last factorKKT call.
	reg float64
	// arena, set only by Sessions, double-buffers the escaping Result
	// storage so results stop allocating per solve.
	arena *resultArena
	bchol *linalg.BandCholesky
	// link is the Schur complement of the linking and equality rows
	// against the band factor (link.nc == 0 when there are none).
	link linkSchur

	scratchN linalg.Vector
	scratchM linalg.Vector
}

// kktBandwidth bounds the half-bandwidth of H = Q + Gᵀdiag(w)G for a
// dense Q and any diagonal weights: the Gram bandwidth advertised by G
// widened to cover Q's own band, found by an O(n²) scan. A dense G (no
// GramBandwidth method) means a dense H.
func kktBandwidth(p *Problem, n int) int {
	g, ok := p.G.(interface{ GramBandwidth() int })
	if !ok {
		return n - 1
	}
	bw := g.GramBandwidth()
	for i := 0; i < n && bw < n-1; i++ {
		for j := 0; j < i-bw; j++ {
			if p.Q.At(i, j) != 0 || p.Q.At(j, i) != 0 {
				bw = i - j
			}
		}
	}
	return bw
}

// statePool recycles ipmStates across solves: MPC and best-response loops
// solve tens of thousands of QPs, and the working vectors plus the packed
// KKT band dominate the solver's allocation profile. Buffers grow to the
// largest shape seen and are resliced for smaller ones, so interleaving
// different problem sizes (the horizon sweep) stops allocating once every
// shape has been visited.
var statePool = sync.Pool{New: func() any {
	return &ipmState{
		hBand: &linalg.BandMatrix{}, qOwn: &linalg.BandMatrix{}, bchol: &linalg.BandCholesky{},
		link: linkSchur{s: &linalg.BandMatrix{}, chol: &linalg.BandCholesky{}},
	}
}}

// growVec reslices v to length n, reallocating only when the capacity is
// insufficient. Contents are unspecified; every user overwrites before
// reading.
func growVec(v linalg.Vector, n int) linalg.Vector {
	if cap(v) < n {
		return linalg.NewVector(n)
	}
	return v[:n]
}

func newIPMState(p *Problem, n, m, q int) *ipmState {
	st := statePool.Get().(*ipmState)
	st.p = p
	// A band Q declares the KKT band; a dense one is scanned for it and
	// its band copied into packed storage once per solve.
	if qb, ok := p.Q.(*linalg.BandMatrix); ok {
		st.qBand = qb
		st.hBW = qb.Bandwidth()
	} else {
		st.hBW = kktBandwidth(p, n)
		st.qOwn.Reset(n, st.hBW)
		_ = st.qOwn.CopyLowerBand(p.Q)
		st.qBand = st.qOwn
	}
	st.cNorm = p.C.NormInf()
	st.hNorm = 0
	if m > 0 {
		st.hNorm = p.H.NormInf()
	}
	st.x = growVec(st.x, n)
	st.rd = growVec(st.rd, n)
	st.dx = growVec(st.dx, n)
	st.qx = growVec(st.qx, n)
	st.scratchN = growVec(st.scratchN, n)
	st.s = growVec(st.s, m)
	st.z = growVec(st.z, m)
	st.rp = growVec(st.rp, m)
	st.rc = growVec(st.rc, m)
	st.ds = growVec(st.ds, m)
	st.dz = growVec(st.dz, m)
	st.w = growVec(st.w, m)
	st.sInv = growVec(st.sInv, m)
	st.scratchM = growVec(st.scratchM, m)
	st.y = growVec(st.y, q)
	st.re = growVec(st.re, q)
	st.dy = growVec(st.dy, q)
	st.n, st.m, st.q = n, m, q
	// Symbolic phase: shape the packed band and the factor layout once; the
	// per-iteration numeric phase then refills and refactorizes in place
	// with zero allocations.
	st.hBand.Reset(n, st.hBW)
	st.bchol.Symbolic(n, st.hBW)
	st.link.analyze(p, st.qBand, n, m, q)
	st.bchol.PivotFloor = 0
	if st.link.nc > 0 {
		st.bchol.PivotFloor = linkPivotFloor
	}
	return st
}

// release returns the state to the pool. Every iterate the caller keeps is
// cloned by result(), so the buffers are free to be reused. Stale band
// content is harmless: factorKKT rewrites the full working band before the
// factorization reads it.
func (st *ipmState) release() {
	st.p = nil
	st.qBand = nil
	statePool.Put(st)
}

// initPoint picks a strictly feasible-in-(s,z) starting point: the cold
// default (x = 0, unit slacks and duals), or the warm-start guess with
// slacks recomputed from the primal point and both s and z floored away
// from the boundary so the first iterations stay well centered.
func (st *ipmState) initPoint(warm *WarmStart) {
	if warm == nil || len(warm.X) != st.n || (warm.Z != nil && len(warm.Z) != st.m) {
		st.x.Zero()
		gx := st.scratchM
		_ = st.p.G.MulVec(st.x, gx)
		for i := 0; i < st.m; i++ {
			slack := st.p.H[i] - gx[i]
			if slack < 1 {
				slack = 1
			}
			st.s[i] = slack
			st.z[i] = 1
		}
		st.y.Zero()
		return
	}
	copy(st.x, warm.X)
	gx := st.scratchM
	_ = st.p.G.MulVec(st.x, gx)
	for i := 0; i < st.m; i++ {
		// Keep a modest distance from the boundary: a warm point sitting
		// exactly on an active constraint would start the iteration with a
		// near-singular scaling matrix.
		// The 1e-7 floor balances two failure modes measured on the MPC
		// and best-response workloads: larger floors discard most of the
		// warm point's centering information (1e-4 costs ~2 extra
		// iterations per warm solve under the adaptive fraction-to-boundary
		// rule), while smaller ones start so close to the boundary that the
		// first steps collapse on cold or badly shifted warm points.
		floor := 1e-7 * (1 + math.Abs(st.p.H[i]))
		slack := st.p.H[i] - gx[i]
		if slack < floor {
			slack = floor
		}
		st.s[i] = slack
		z := 1.0
		if warm.Z != nil {
			z = warm.Z[i]
			if z < floor {
				z = floor
			}
		}
		st.z[i] = z
	}
	st.y.Zero()
}

// computeResiduals evaluates rd, rp, re, the objective, and Q·x exactly at
// the current iterate.
func (st *ipmState) computeResiduals() {
	p := st.p
	// qx = Qx (Q's band is inside the KKT band); rd = Qx + c + Gᵀz + Aᵀy.
	_ = st.qBand.MulVec(st.x, st.qx)
	// The product Qx in hand, the objective ½xᵀQx + cᵀx falls out of the
	// same pass; converged() and result() reuse it instead of redoing the
	// banded product. The value matches Problem.Objective exactly: the
	// entries the band skips are exact zeros, which cannot change an IEEE
	// accumulation.
	var obj float64
	rd, qxv, c, x := st.rd[:st.n], st.qx[:st.n], p.C[:st.n], st.x[:st.n]
	for i := range rd {
		obj += x[i] * (0.5*qxv[i] + c[i])
		rd[i] = qxv[i] + c[i]
	}
	st.obj = obj
	_ = p.G.MulVecT(st.z, st.scratchN)
	sn := st.scratchN[:st.n]
	var rdN float64
	for i := range rd {
		v := rd[i] + sn[i]
		rd[i] = v
		if v < 0 {
			v = -v
		}
		if v > rdN {
			rdN = v
		}
	}
	if st.q > 0 {
		_ = p.A.MulVecT(st.y, st.scratchN)
		rdN = 0
		for i := range rd {
			v := rd[i] + sn[i]
			rd[i] = v
			if v < 0 {
				v = -v
			}
			if v > rdN {
				rdN = v
			}
		}
	}
	st.rdNorm = rdN
	// rp = Gx + s − h
	_ = p.G.MulVec(st.x, st.rp)
	rp, s, h := st.rp[:st.m], st.s[:st.m], p.H[:st.m]
	var rpN float64
	for i := range rp {
		v := rp[i] + (s[i] - h[i])
		rp[i] = v
		if v < 0 {
			v = -v
		}
		if v > rpN {
			rpN = v
		}
	}
	st.rpNorm = rpN
	// re = Ax − b
	st.reNorm = 0
	if st.q > 0 {
		_ = p.A.MulVec(st.x, st.re)
		for i := range st.re {
			st.re[i] -= p.B[i]
		}
		st.reNorm = st.re.NormInf()
	}
	st.fresh = true
}

// updateResiduals advances rd, rp, the objective, and Q·x across the step
// (αp, αd) from the Newton identities of the direction just taken: one
// banded matvec with dx instead of the four matvecs of a full evaluation.
// Only valid when q == 0, the step did not clip at the positivity floor,
// and the factorization used the static regularization (callers check).
func (st *ipmState) updateResiduals(alphaP, alphaD, reg float64) {
	_ = st.qBand.MulVec(st.dx, st.scratchN)
	qdx := st.scratchN[:st.n]
	rd, qxv, dx := st.rd[:st.n], st.qx[:st.n], st.dx[:st.n]
	pd := alphaP - alphaD
	omd := 1 - alphaD
	var rdN float64
	for i := range rd {
		v := omd*rd[i] + pd*qdx[i] - alphaD*reg*dx[i]
		rd[i] = v
		qxv[i] += alphaP * qdx[i]
		if v < 0 {
			v = -v
		}
		if v > rdN {
			rdN = v
		}
	}
	st.rdNorm = rdN
	var obj float64
	c, x := st.p.C[:st.n], st.x[:st.n]
	for i := range x {
		obj += x[i] * (0.5*qxv[i] + c[i])
	}
	st.obj = obj
	omp := 1 - alphaP
	rp := st.rp[:st.m]
	for i := range rp {
		rp[i] *= omp
	}
	if omp < 0 {
		omp = -omp
	}
	st.rpNorm *= omp
	st.fresh = false
}

func (st *ipmState) gap() float64 {
	return st.szDot / float64(st.m)
}

func (st *ipmState) gapAfter(alphaP, alphaD float64) float64 {
	var g float64
	s, ds := st.s[:st.m], st.ds[:st.m]
	z, dz := st.z[:st.m], st.dz[:st.m]
	for i := range s {
		g += (s[i] + alphaP*ds[i]) * (z[i] + alphaD*dz[i])
	}
	return g / float64(st.m)
}

func (st *ipmState) converged(tol, mu float64) bool {
	// Relative tests, each against its own natural scale: the duality gap
	// against the objective magnitude, the dual residual against the cost
	// vector, the primal residuals against the constraint data. Scaling
	// everything by ‖h‖ would let one huge (slack) bound mask a bad gap.
	objScale := 1 + math.Abs(st.obj)
	dualScale := 1 + st.cNorm
	priScale := 1 + st.hNorm
	eqScale := 1.0
	if st.q > 0 {
		eqScale += st.p.B.NormInf()
	}
	return mu < tol*objScale &&
		st.rdNorm < tol*dualScale*objScale &&
		st.rpNorm < tol*priScale &&
		st.reNorm < tol*eqScale
}

// factorKKT runs the numeric factorization phase: refill the packed band
// with H_b = Q + G_bᵀdiag(z/s)G_b (+ regularization) and refactorize in
// place, then the Schur complement of the linking and equality rows. The
// symbolic phase (layout and storage) happened once in newIPMState, so no
// allocation occurs here.
func (st *ipmState) factorKKT(reg float64) error {
	st.reg = reg
	st.bumped = false
	sInv, wv := st.sInv[:st.m], st.w[:st.m]
	sv, zv := st.s[:st.m], st.z[:st.m]
	for i := range sv {
		sInv[i] = 1 / sv[i]
		wv[i] = zv[i] * sInv[i]
	}
	if err := st.factorKKTFull(reg); err != nil {
		return err
	}
	if st.link.nc == 0 {
		return nil
	}
	if err := st.link.formGram(st.bchol); err != nil {
		return fmt.Errorf("schur: %v: %w", err, ErrNumerical)
	}
	if err := st.link.factorS(wv, st.p.Linking, reg); err != nil {
		return fmt.Errorf("schur: %v: %w", err, ErrNumerical)
	}
	return nil
}

// factorKKTFull is the numeric factorization of the band part proper:
// refill the packed band and refactorize in place.
func (st *ipmState) factorKKTFull(reg float64) error {
	// Refill the working band: Q's packed band lands in one contiguous
	// copy, reg goes on the diagonal, then G_bᵀdiag(w)G_b is accumulated on
	// top — the linking rows carry zero weight there, so the assembly
	// skips them. The band is Q's (or kktBandwidth's scan); a band row of
	// G too wide for it is the caller's error.
	n, bw := st.n, st.hBW
	_ = st.hBand.CopyFrom(st.qBand)
	st.hBand.AddDiag(reg)
	if err := st.p.G.AtATWeightedBand(st.link.bandWeights(st.w, st.p.Linking), st.hBand); err != nil {
		return fmt.Errorf("kkt assembly: %v: %w", err, ErrBadProblem)
	}
	err := st.bchol.Factorize(st.hBand)
	if st.bchol.Replaced > 0 {
		st.bumped = true
	}
	if err != nil {
		// Retry once with heavier regularization, scaled to the matrix
		// magnitude: near-complementary iterates blow the z/s weights up
		// to ~1e14, where an absolute 1e-8 shift is lost in rounding.
		var maxDiag float64
		for i := 0; i < n; i++ {
			if d := st.hBand.Row(i)[bw]; d > maxDiag {
				maxDiag = d
			}
		}
		st.bumped = true
		st.hBand.AddDiag(1e-8 * (1 + maxDiag))
		if err := st.bchol.Factorize(st.hBand); err != nil {
			return fmt.Errorf("%v: %w", err, ErrNumerical)
		}
	}

	return nil
}

// solveDirection solves the reduced Newton system for the current
// residuals (rd, rp, re, rc), storing the direction in dx/ds/dz/dy.
// factorKKT must have been called for the current (s, z).
// solveDirection computes the search direction for the current rc and, in
// the same pass that forms (ds, dz), the largest steps keeping s and z
// positive, each in (0, 1].
func (st *ipmState) solveDirection() (alphaP, alphaD float64, err error) {
	// r1 = −rd − Gᵀ S⁻¹ (Z·rp − rc)
	scr := st.scratchM[:st.m]
	z, rp, rc, sInv := st.z[:st.m], st.rp[:st.m], st.rc[:st.m], st.sInv[:st.m]
	for i := range scr {
		scr[i] = (z[i]*rp[i] - rc[i]) * sInv[i]
	}
	if err := st.p.G.MulVecT(st.scratchM, st.scratchN); err != nil {
		return 0, 0, err
	}
	r1 := st.dx[:st.n] // reuse storage
	rd, sn := st.rd[:st.n], st.scratchN[:st.n]
	for i := range r1 {
		r1[i] = -rd[i] - sn[i]
	}

	if st.link.nc == 0 {
		if err := st.bchol.Solve(r1, st.dx); err != nil {
			return 0, 0, fmt.Errorf("%v: %w", err, ErrNumerical)
		}
	} else {
		if err := st.solveLinked(); err != nil {
			return 0, 0, err
		}
	}

	// ds = −rp − G dx ; dz = S⁻¹(−rc − Z ds). The boundary step lengths
	// fall out of the same pass: since s, z > 0 the guard −v > alpha·d can
	// only fire for d < 0, where it is exactly −v/d < alpha, so the common
	// non-tightening case costs a multiply instead of a divide. Decoupled
	// primal/dual steps are the standard Mehrotra refinement: a slack
	// pinned at its boundary no longer truncates the dual step (and vice
	// versa), which shortens the tail of the iteration.
	if err := st.p.G.MulVec(st.dx, st.scratchM); err != nil {
		return 0, 0, err
	}
	// On a linking row the dual step comes from the Schur multiplier: the
	// loop below sees λᵢ/wᵢ in place of (G dx)ᵢ — equal in exact
	// arithmetic — so dzᵢ = S⁻¹(Z·rp − rc)ᵢ + λᵢ, where the rounding of
	// the product, amplified by an active row's weight (z/s up to ~1e14),
	// would otherwise land in the dual residual. The primal step keeps the
	// product itself (patched in after the loop), so the primal residual
	// of a capacity row still contracts exactly.
	gl := st.link.gl
	for k, r := range st.p.Linking {
		gl[k] = st.scratchM[r]
		st.scratchM[r] = st.link.lam[k] / st.w[r]
	}
	alphaP, alphaD = 1.0, 1.0
	ds, dz, s := st.ds[:st.m], st.dz[:st.m], st.s[:st.m]
	for i := range ds {
		d := -rp[i] - scr[i]
		ds[i] = d
		dzi := (-rc[i] - z[i]*d) * sInv[i]
		dz[i] = dzi
		if -s[i] > alphaP*d {
			alphaP = -s[i] / d
		}
		if -z[i] > alphaD*dzi {
			alphaD = -z[i] / dzi
		}
	}
	for k, r := range st.p.Linking {
		d := -rp[r] - gl[k]
		ds[r] = d
		if -s[r] > alphaP*d {
			alphaP = -s[r] / d
		}
	}
	return alphaP, alphaD, nil
}

// step advances the iterate by αp along (dx, ds) and αd along (dz, dy),
// flooring s and z away from zero. It reports whether any floor fired —
// a nonlinear correction that invalidates the incremental residual
// identities.
func (st *ipmState) step(alphaP, alphaD float64) bool {
	linalg.Axpy(alphaP, st.dx[:st.n], st.x[:st.n])
	linalg.Axpy(alphaD, st.dy[:st.q], st.y[:st.q])
	// s and z advance, floor, and accumulate the complementarity product
	// sᵀz in a single pass; gap() reads the cached product instead of
	// rescanning both vectors every iteration.
	const floor = 1e-14
	floored := false
	var dot float64
	s, ds := st.s[:st.m], st.ds[:st.m]
	z, dz := st.z[:st.m], st.dz[:st.m]
	for i := range s {
		si := s[i] + alphaP*ds[i]
		if si < floor {
			si = floor
			floored = true
		}
		s[i] = si
		zi := z[i] + alphaD*dz[i]
		if zi < floor {
			zi = floor
			floored = true
		}
		z[i] = zi
		dot += si * zi
	}
	st.szDot = dot
	return floored
}

// anytimeInfeasWeight converts primal/equality infeasibility into merit
// units: an anytime snapshot is "better" when objective + weight·(‖rp‖∞ +
// ‖re‖∞) is lower. The weight is large enough that no realistic objective
// improvement can buy constraint violation, so the best-so-far rule walks
// toward feasibility first and cost second — exactly the preference of a
// controller that must ship an implementable plan at the deadline.
const anytimeInfeasWeight = 1e6

// prepareAnytime arms (or disarms) the per-iteration snapshot. The three
// snapshot buffers grow only here, so solves without Options.Anytime keep
// the solver's exact allocation count.
func (st *ipmState) prepareAnytime(on bool) {
	st.anytime = on
	st.snapValid = false
	if !on {
		return
	}
	st.snapX = growVec(st.snapX, st.n)
	st.snapZ = growVec(st.snapZ, st.m)
	st.snapY = growVec(st.snapY, st.q)
}

// snapshotAnytime records the current iterate when its merit beats the
// best snapshot so far. Pure copies: the solve's own floating-point
// trajectory is untouched, which is what makes the no-deadline anytime
// path bit-identical to the plain solver.
func (st *ipmState) snapshotAnytime(iter int) {
	merit := st.obj + anytimeInfeasWeight*(st.rpNorm+st.reNorm)
	if st.snapValid && merit >= st.snapMerit {
		return
	}
	st.snapValid = true
	st.snapIter = iter
	st.snapObj = st.obj
	st.snapMu = st.gap()
	st.snapMerit = merit
	st.snapRdN = st.rdNorm
	st.snapRpN = st.rpNorm
	st.snapReN = st.reNorm
	copy(st.snapX[:st.n], st.x[:st.n])
	copy(st.snapZ[:st.m], st.z[:st.m])
	copy(st.snapY[:st.q], st.y[:st.q])
}

// anytimeResult builds an escaping Result from the snapshot. Unlike
// result() it always allocates fresh storage — the deadline path is a
// degraded, rare path, and sharing the session arena would let a partial
// iterate overwrite a still-referenced complete plan.
func (st *ipmState) anytimeResult(iters int) *Result {
	need := st.n + st.m + st.q
	buf := linalg.NewVector(need)
	x := buf[:st.n:st.n]
	copy(x, st.snapX[:st.n])
	z := buf[st.n : st.n+st.m : st.n+st.m]
	copy(z, st.snapZ[:st.m])
	pres := st.snapRpN
	if st.snapReN > pres {
		pres = st.snapReN
	}
	res := &Result{
		X:          x,
		IneqDuals:  z,
		Objective:  st.snapObj,
		Iterations: iters,
		Gap:        st.snapMu,
		PrimalRes:  pres,
		DualRes:    st.snapRdN,
		Anytime: &AnytimeInfo{
			Iterations: st.snapIter,
			Mu:         st.snapMu,
			PrimalRes:  pres,
			DualRes:    st.snapRdN,
			Merit:      st.snapMerit,
		},
	}
	if st.q > 0 {
		y := buf[st.n+st.m:]
		copy(y, st.snapY[:st.q])
		res.EqDuals = y
	}
	return res
}

// resultArena double-buffers the escaping Result storage of a Session.
// Each solve writes the generation the previous solve did not, so a
// result — typically feeding the next solve's warm start — stays valid
// through exactly one more solve without any per-solve allocation.
type resultArena struct {
	gen  int
	bufs [2]linalg.Vector
	ress [2]Result
}

func (st *ipmState) result(p *Problem, iters int, mu float64) (*Result, error) {
	// The escaping iterates are carved from one backing buffer (the state's
	// own vectors go back to the pool), and the objective reuses the
	// state's scratch instead of allocating. Sessions swap in their arena's
	// off generation instead of allocating at all.
	need := st.n + st.m + st.q
	var buf linalg.Vector
	var res *Result
	if ar := st.arena; ar != nil {
		ar.gen ^= 1
		ar.bufs[ar.gen] = growVec(ar.bufs[ar.gen], need)
		buf = ar.bufs[ar.gen]
		res = &ar.ress[ar.gen]
	} else {
		buf = linalg.NewVector(need)
		res = &Result{}
	}
	x := buf[:st.n:st.n]
	copy(x, st.x)
	z := buf[st.n : st.n+st.m : st.n+st.m]
	copy(z, st.z)
	*res = Result{
		X:          x,
		IneqDuals:  z,
		Objective:  st.obj,
		Iterations: iters,
		Gap:        mu,
		PrimalRes:  math.Max(st.rpNorm, st.reNorm),
		DualRes:    st.rdNorm,
	}
	if st.q > 0 {
		y := buf[st.n+st.m:]
		copy(y, st.y)
		res.EqDuals = y
	}
	return res, nil
}

// solveEqualityOnly handles problems with no inequality constraints by
// solving the KKT system directly:
//
//	[Q Aᵀ; A 0] [x; y] = [−c; b]
func solveEqualityOnly(p *Problem, opts Options) (*Result, error) {
	n := p.NumVars()
	q := p.NumEq()
	hm := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			hm.Set(i, j, p.Q.At(i, j))
		}
		hm.Inc(i, i, opts.Regularize)
	}
	chol, err := linalg.NewCholesky(hm)
	if err != nil {
		return nil, fmt.Errorf("unconstrained Q: %v: %w", err, ErrNumerical)
	}
	negC := p.C.Clone()
	negC.Scale(-1)
	if q == 0 {
		x := linalg.NewVector(n)
		if err := chol.Solve(negC, x); err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrNumerical)
		}
		obj, err := p.Objective(x)
		if err != nil {
			return nil, err
		}
		return &Result{X: x, Objective: obj, Iterations: 1}, nil
	}
	hInvAt, err := chol.SolveMatrix(p.A.T())
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrNumerical)
	}
	sc, err := linalg.Mul(p.A, hInvAt)
	if err != nil {
		return nil, err
	}
	schur, err := linalg.NewCholesky(sc)
	if err != nil {
		return nil, fmt.Errorf("schur: %v: %w", err, ErrNumerical)
	}
	hInvC := linalg.NewVector(n)
	if err := chol.Solve(negC, hInvC); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrNumerical)
	}
	rhs := linalg.NewVector(q)
	if err := p.A.MulVec(hInvC, rhs); err != nil {
		return nil, err
	}
	for i := 0; i < q; i++ {
		rhs[i] -= p.B[i]
	}
	y := linalg.NewVector(q)
	if err := schur.Solve(rhs, y); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrNumerical)
	}
	aty := linalg.NewVector(n)
	if err := p.A.MulVecT(y, aty); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		negC[i] -= aty[i]
	}
	x := linalg.NewVector(n)
	if err := chol.Solve(negC, x); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrNumerical)
	}
	obj, err := p.Objective(x)
	if err != nil {
		return nil, err
	}
	return &Result{X: x, EqDuals: y, Objective: obj, Iterations: 1}, nil
}
