package qp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dspp/internal/linalg"
	"dspp/internal/telemetry"
)

// solveStats accumulates per-solve counts Session.SolveCtx flushes into
// the telemetry hooks after the solve returns. The iteration loop
// touches it through a nil-guarded pointer, so the disabled path costs a
// predictable branch per site and nothing else.
type solveStats struct {
	correctorSkips int
	factorizations int
	bumps          int
	recenters      int
	// warmed marks a solve that started from its warm start (initPoint
	// admitted it), not merely one that was handed a warm start.
	warmed bool
	// capped marks a solve that ran to MaxIterations, whether it was then
	// accepted at the loosened tolerance or failed with ErrMaxIterations.
	capped bool
}

// flushQPTelemetry publishes one finished solve into the hooks' counters
// and closes its qp_solve span with outcome attributes.
func flushQPTelemetry(h *telemetry.QPHooks, sp *telemetry.Span, res *Result, err error, stats *solveStats) {
	h.Solves.Inc()
	wasWarm := 0.0
	if stats.warmed {
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
	h.Recenters.Add(float64(stats.recenters))
	if stats.capped {
		h.MaxIter.Inc()
	}
	outcome := "ok"
	switch {
	case err == nil:
		if res.Loose {
			outcome = "loose"
		}
	case errors.Is(err, ErrNumerical):
		h.NumericalFailures.Inc()
		outcome = "numerical"
	case errors.Is(err, ErrMaxIterations):
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
		telemetry.Num("recenters", float64(stats.recenters)),
		telemetry.Num("warm", wasWarm),
		telemetry.Str("outcome", outcome),
	)
	sp.End()
}

// runIPM minimizes the session's QP with a primal–dual interior-point
// method, from the (optional) warm start if initPoint admits it and from
// Mehrotra's least-squares starting point otherwise (coldStart: one more
// factorization, whose failure is the solve's error). The context is
// polled once per iteration, so a stuck or slow solve terminates within
// one iteration of ctx expiring; the returned error then wraps ctx.Err()
// (not ErrNumerical/ErrMaxIterations), letting callers tell an abandoned
// solve from a failed one. anytime arms the best-iterate snapshot
// (Session.SetAnytime).
//
// Each iteration runs one Mehrotra predictor–corrector round: a single
// numeric refactorization of the KKT matrix (into packed band storage,
// inside the envelope the symbolic phase — Structure — laid out once per
// problem structure), an affine predictor solve, the σ = (μ_aff/μ)³
// centering heuristic, and a corrector solve against the same
// factorization. Primal and dual step lengths are chosen separately — the
// standard Mehrotra refinement, worth a few iterations on most problems
// because a short slack step no longer truncates the dual step. After
// every step rd, rp and the objective are recomputed exactly
// (computeResiduals), so every convergence test, anytime snapshot and
// loose acceptance reads the true residuals of the current iterate.
func runIPM(ctx context.Context, st *ipmState, opts Options, anytime bool, warm *WarmStart, stats *solveStats) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	warmed, err := st.initPoint(warm)
	if stats != nil {
		stats.warmed = warmed
		if !warmed {
			// The cold start's own factorization.
			stats.factorizations++
			if st.bumped {
				stats.bumps++
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("cold start: %w", err)
	}
	m := st.m

	st.computeResiduals()
	st.prepareAnytime(anytime)
	if st.anytime {
		// The starting point (the warm start or the computed cold start)
		// is the first anytime candidate: even a deadline that fires
		// before one full iteration completes still has something
		// implementable.
		st.snapshotAnytime(0)
	}
	// The per-iteration deadline check reads the wall clock rather than
	// relying on ctx.Err() alone: ctx.Err() flips only after the context's
	// timer goroutine runs, and on a starved scheduler (GOMAXPROCS=1 with
	// this loop spinning) that can lag the actual deadline by the runtime's
	// forced-preemption interval (~10ms) — far beyond the budgets a
	// deadline-bounded controller works with.
	deadline, hasDeadline := ctx.Deadline()
	// short counts consecutive collapsed steps of a warm start still far
	// from primal feasibility; recentered marks the one-shot rung as spent.
	short, recentered := 0, !warmed
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
			return st.result(iter, mu), nil
		}

		if err := st.factorCounted(stats); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", iter, err)
		}
		affP, affD, err := st.predictor()
		if err != nil {
			return nil, fmt.Errorf("iteration %d (affine): %w", iter, err)
		}
		// The predictor trigger: a warm start whose very first predictor
		// is blocked at the boundary while rp is far from converged is
		// jammed already, so the rung fires before the first step rather
		// than after jamStreak wasted ones, and the iteration goes on
		// from the recentered point's own factorization and predictor.
		if !recentered && iter == 0 && math.Min(affP, affD) < jamAffine && st.jammed() {
			recentered = true
			st.fireRecenter(stats)
			mu = st.gap()
			if err := st.factorCounted(stats); err != nil {
				return nil, fmt.Errorf("iteration %d (recentered): %w", iter, err)
			}
			if affP, affD, err = st.predictor(); err != nil {
				return nil, fmt.Errorf("iteration %d (recentered affine): %w", iter, err)
			}
		}
		muAff := st.gapAfter(affP, affD)

		// Centering parameter (Mehrotra heuristic).
		sigma := 0.0
		if mu > 0 {
			r := muAff / mu
			sigma = r * r * r
		}
		// The gap floor: while rd or rp is unconverged, the affine step may
		// not take μ below muFloor·Tolerance·(1+|obj|); the corrector then
		// aims at the floor instead, so the residuals are fixed at a μ where
		// the KKT factor is still accurate.
		floor := muFloor * opts.Tolerance * (1 + math.Abs(st.obj))
		hold := muAff < floor && !st.residualsConverged(opts.Tolerance)
		if hold {
			sigma = math.Max(sigma, math.Min(floor/mu, 1))
			if floorHook != nil {
				floorHook(st)
			}
		}

		// Corrector direction: rc = s∘z + Δs_aff∘Δz_aff − σμ·1, solved
		// against the predictor's factorization. When the affine direction
		// already takes the full step and drops the gap below tolerance —
		// the common tail of warm-started MPC and best-response solves —
		// the correction cannot improve an already-accepted step, so the
		// extra back-solve is skipped (unless the gap floor holds μ).
		alphaP, alphaD := affP, affD
		if hold || muAff >= opts.Tolerance || affP < 1 || affD < 1 {
			rcv, sv, zv := st.rc[:m], st.s[:m], st.z[:m]
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
		// Adaptive fraction-to-boundary (Mehrotra): back off by stepScale
		// while far from the solution, but let η → 1 as the relative gap
		// closes — the conservative margin is pure slowdown in the tail,
		// where the affine direction is nearly exact.
		eta := stepScale
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
		st.step(alphaP, alphaD)
		st.computeResiduals()
		if !recentered {
			if math.Min(alphaP, alphaD) < jamStep && st.jammed() {
				short++
			} else {
				short = 0
			}
			if short == jamStreak {
				recentered = true
				st.fireRecenter(stats)
			}
		}
		if st.anytime {
			st.snapshotAnytime(iter + 1)
		}
	}

	if stats != nil {
		stats.capped = true
	}
	mu := st.gap()
	// Accept a slightly looser solution before reporting failure: MPC loops
	// prefer a usable near-optimal control to an error.
	if st.converged(opts.Tolerance*1e4, mu) {
		res := st.result(opts.MaxIterations, mu)
		res.Loose = true
		return res, nil
	}
	res := st.result(opts.MaxIterations, mu)
	return res, fmt.Errorf("gap=%.3g primal=%.3g dual=%.3g: %w",
		mu, res.PrimalRes, res.DualRes, ErrMaxIterations)
}

// muFloor scales the gap floor of runIPM: μ is held at or above
// muFloor·Tolerance·(1+|obj|), a tenth of the convergence threshold, while
// rd or rp is unconverged. Without it a warm-started linked solve could
// take two full affine steps to μ ≈ 1e-14 with the relative dual residual
// still at 2e-8: at that μ the z/s weights reach ~1e14, the band factor's
// soft-direction pivots cancel to rounding noise, and every later step
// leaves the residual where it was until the iteration cap (the flat n120
// continental seed-3 run: 25 of 60 periods loose, 2601 iterations; with
// the floor none, 139). DESIGN.md §7 has the trace.
const muFloor = 0.1

// recenterHook, when set by a test, observes the state right after the
// recentering rung fires.
var recenterHook func(*ipmState)

// floorHook, when set by a test, observes the state each time the gap
// floor raises σ.
var floorHook func(*ipmState)

// ipmState carries the working vectors of the interior-point iteration.
type ipmState struct {
	p    *Problem
	n, m int // vars, inequalities

	x, s, z linalg.Vector // primal, slack, dual

	rd, rp, rc linalg.Vector // residuals
	dx, ds, dz linalg.Vector // search direction

	w    linalg.Vector // z/s weights
	sInv linalg.Vector // 1/s, refreshed by factorKKT for the direction solves
	// sym is the symbolic phase the solve reads: the problem's shared
	// Structure, or the session's own analysis when it has none.
	sym *Structure
	// hBand is the band part of the KKT matrix, H_b = Q + G_bᵀDG_b over
	// the rows of G that are not linking rows, in packed band storage:
	// shaped once from the structure, refilled in place by the numeric
	// phase (factorKKT) every iteration.
	hBand *linalg.BandMatrix
	// ‖c‖∞ and ‖h‖∞, set once per solve (Session.SolveCtx), hoisted out
	// of the per-iteration convergence test.
	cNorm, hNorm float64
	// obj is the objective at the current iterate, computed with the
	// residuals.
	obj float64
	// szDot caches sᵀz, maintained by initPoint and step so gap() costs
	// nothing per iteration.
	szDot float64
	// rdNorm/rpNorm cache the ∞-norms of the residuals, taken in the
	// pass that writes them; converged() and result() read the cached
	// values instead of rescanning.
	rdNorm, rpNorm float64
	// anytime snapshot state (Session.SetAnytime only): the best-merit iterate
	// seen so far, copied out each time the merit improves so a deadline
	// return never hands back a worse point than one already visited. The
	// vectors are allocated by the first anytime solve, so sessions that
	// never turn anytime on do not carry them.
	anytime   bool
	snapValid bool
	snapIter  int
	snapObj   float64
	snapMu    float64
	snapMerit float64
	snapRdN   float64
	snapRpN   float64
	snapX     linalg.Vector
	snapZ     linalg.Vector
	// bumped records that the last factorization needed the emergency
	// regularization bump (counted in solveStats.bumps).
	bumped bool
	// arena double-buffers the escaping Result storage, so results do not
	// allocate per solve.
	arena resultArena
	bchol *linalg.BandCholesky
	// link is the Schur complement of the linking rows against the band
	// factor (link.k == 0 when there are none).
	link linkSchur

	scratchN linalg.Vector
	scratchM linalg.Vector
}

// newIPMState sizes the working set for p, whose symbolic phase is sym,
// once: solves refill and refactorize it in place, and after the first
// two (which allocate the result arena's buffers) allocate nothing.
func newIPMState(p *Problem, sym *Structure) *ipmState {
	n, m := p.NumVars(), p.NumIneq()
	st := &ipmState{
		p: p, n: n, m: m, sym: sym,
		x: linalg.NewVector(n), s: linalg.NewVector(m), z: linalg.NewVector(m),
		rd: linalg.NewVector(n), rp: linalg.NewVector(m), rc: linalg.NewVector(m),
		dx: linalg.NewVector(n), ds: linalg.NewVector(m), dz: linalg.NewVector(m),
		w: linalg.NewVector(m), sInv: linalg.NewVector(m),
		scratchN: linalg.NewVector(n), scratchM: linalg.NewVector(m),
		// The packed band and the Schur working set.
		hBand: linalg.NewBandMatrix(n, sym.bw),
		link:  newLinkSchur(sym.link, n, m),
	}
	// H_b's factor, over the structure's envelope (which Analyze keeps
	// within the band, so this cannot fail).
	st.bchol, _ = linalg.NewBandCholesky(sym.bw, sym.env)
	return st
}

// initPoint seats a strictly feasible-in-(s,z) starting point, sets
// szDot, and reports whether the point is the warm start. It is only if
// admitted: its dimensions match, X and Z are finite, and the gap sᵀz it
// seats (slacks recomputed from x, s and z floored away from the boundary)
// is at most the admission scale Σᵢ max(hᵢ, 1). A point further from
// complementarity than that can only cost iterations, and far enough off
// the central path it stalls to the iteration cap (cf. Yildirim & Wright,
// SIAM J. Optim. 2002). Otherwise initPoint seats the cold start
// (coldStart), so a refused warm start solves bitwise like none. The
// error is the cold start's factorization or solve failing.
func (st *ipmState) initPoint(warm *WarmStart) (bool, error) {
	if warm != nil && len(warm.X) == st.n && (warm.Z == nil || len(warm.Z) == st.m) && st.seatWarm(warm) {
		return true, nil
	}
	return false, st.coldStart()
}

// coldStart seats Mehrotra's least-squares starting point (S. Mehrotra,
// SIAM J. Optim. 2(4), 1992; also the default cold start of CVXOPT's
// coneqp). At unit weights (s = z = 1) the KKT matrix is Q + GᵀG, the
// linking rows entering through the Schur complement at D = 1, and x
// solves (Q + GᵀG)·x = Gᵀh − c. Then s = h − Gx and z = −s; a vector with
// an entry ≤ 0 is shifted by 1 + its largest negated entry, and both are
// balanced by s += ½·sᵀz/Σz and z += ½·sᵀz/Σs, which keeps each pair off
// the boundary in proportion to the gap (without the balancing a
// recentered warm start in TestRecenterUnjamsWarmStart misses its
// bound). On the continental W2 solves from n120 to n2000 this start
// takes 10–12 iterations where x = 0, s = max(h, 1), z = 1 took 20–26.
// The unit-weight KKT matrix is positive definite exactly when that old
// start's first one was (its weights 1/max(hᵢ, 1) were positive too), so
// this factorization fails only where that iteration would have.
func (st *ipmState) coldStart() error {
	m := st.m
	s, z, h := st.s[:m], st.z[:m], st.p.H[:m]
	for i := range s {
		s[i], z[i] = 1, 1
	}
	if err := st.factorKKT(); err != nil {
		return err
	}
	// r = Gᵀh − c goes into dx, where solveKKT reads it.
	_ = st.p.G.MulVecT(st.p.H, st.scratchN)
	r, c, sn := st.dx[:st.n], st.p.C[:st.n], st.scratchN[:st.n]
	for i := range r {
		r[i] = sn[i] - c[i]
	}
	if err := st.solveKKT(); err != nil {
		return err
	}
	copy(st.x[:st.n], r)
	gx := st.scratchM[:m]
	_ = st.p.G.MulVec(st.x, gx)
	sMax, zMax := math.Inf(-1), math.Inf(-1) // the largest −sᵢ and −zᵢ
	for i := range s {
		v := h[i] - gx[i]
		s[i], z[i] = v, -v
		sMax = max(sMax, -v)
		zMax = max(zMax, v)
	}
	var sz, sumS, sumZ float64
	for i := range s {
		if sMax >= 0 {
			s[i] += 1 + sMax
		}
		if zMax >= 0 {
			z[i] += 1 + zMax
		}
		sz += s[i] * z[i]
		sumS += s[i]
		sumZ += z[i]
	}
	ds, dz := 0.5*sz/sumZ, 0.5*sz/sumS
	for i := range s {
		s[i] += ds
		z[i] += dz
	}
	st.szDot = linalg.DotProd(s, z)
	return nil
}

// seatWarm seats warm (dimensions already checked) and reports whether
// initPoint's admission rule accepts it.
func (st *ipmState) seatWarm(warm *WarmStart) bool {
	for j, v := range warm.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		st.x[j] = v
	}
	gx := st.scratchM
	_ = st.p.G.MulVec(st.x, gx)
	var coldGap float64
	for i := 0; i < st.m; i++ {
		h := st.p.H[i]
		coldGap += math.Max(h, 1)
		// Keep a modest distance from the boundary: a warm point sitting
		// exactly on an active constraint would start the iteration with a
		// near-singular scaling matrix.
		// The 1e-7 floor balances two failure modes measured on the MPC
		// and best-response workloads: larger floors discard most of the
		// warm point's centering information (1e-4 costs ~2 extra
		// iterations per warm solve under the adaptive fraction-to-boundary
		// rule), while smaller ones start so close to the boundary that the
		// first steps collapse on cold or badly shifted warm points.
		floor := 1e-7 * (1 + math.Abs(h))
		slack := h - gx[i]
		if slack < floor {
			slack = floor
		}
		st.s[i] = slack
		z := 1.0
		if warm.Z != nil {
			z = warm.Z[i]
			if math.IsNaN(z) || math.IsInf(z, 0) {
				return false
			}
			if z < floor {
				z = floor
			}
		}
		st.z[i] = z
	}
	st.szDot = linalg.DotProd(st.s[:st.m], st.z[:st.m])
	// Written so that a gap that overflowed to NaN (finite x with
	// G·x = Inf − Inf) is refused too.
	return st.szDot <= coldGap
}

// The recentering rung un-jams a warm start that stalls. A shifted MPC
// plan starts nearly complementary (relative gap ~1e-7) but primal
// infeasible, and when the new horizon step forces a capacity row binding
// a block of nonnegativity rows must swap which of s, z is zero: every
// step then stops at the boundary of one of them. Once jamStreak
// consecutive steps shorter than jamStep leave ‖rp‖∞ above
// jamPrimal·(1+‖h‖∞), the solve re-seats s and z once (recenter) about
// the current x and carries on. On the continental-diurnal trace (n120,
// 12 DCs, W=2, amplitude 0.3) the jammed periods took 20–38 iterations
// against a median of 4, with steps of 1e-10 to 6e-2; the rung cuts the
// mean from 5.97 to 4.47 and the maximum to 11. The constants were chosen
// by total iterations over nine such scenarios (−16%, none worse); a
// one-step trigger made 11 periods worse, and without the ‖rp‖ guard the
// rung fires on nearly converged solves and turns the flat n120 seed-3
// run from 25 to 33 loose solves. DESIGN.md §7 has the measurements.
//
// A jam that is there from the start is caught earlier: when the first
// predictor of a warm solve already has min(αP_aff, αD_aff) < jamAffine
// under the same ‖rp‖ guard, the rung fires before the first step. That
// is the best-response shape: a cut quota leaves the capacity row
// violated with its slack floored. On the Fig 7 sweeps the streak trigger
// fired on 8.8% of the solves, every time after two full iterations at
// steps of 1e-14 to 1e-4 (mostly 1e-12 to 1e-5). jamAffine is far below
// jamStep because a short first predictor is also common on warm starts
// that the streak trigger recenters later, or never, to better effect: at
// 1e-3 or 1e-2 the seed-8 cut-0.3 case of TestRecenterUnjamsWarmStart
// recenters before its first step and ends 1.3e-8 relative off the cold
// optimum, outside the test's 1e-8.
const (
	jamStreak  = 2
	jamStep    = 0.01
	jamPrimal  = 1e-4
	jamShift   = 1.0
	jamBalance = 0.3
)

// jamAffine is a variable only so that a test can switch the predictor
// trigger off and compare with the streak trigger alone.
var jamAffine = 1e-4

// jammed is the rung's primal guard: rp is still above
// jamPrimal·(1+‖h‖∞).
func (st *ipmState) jammed() bool {
	return st.rpNorm > jamPrimal*(1+st.hNorm)
}

// fireRecenter spends the one-shot rung: recenter, count it and call the
// test hook.
func (st *ipmState) fireRecenter(stats *solveStats) {
	st.recenter()
	if stats != nil {
		stats.recenters++
	}
	if recenterHook != nil {
		recenterHook(st)
	}
}

// recenter is Mehrotra's starting-point shift applied at the current x:
// the slacks become the exact primal slacks h − Gx lifted by
// jamShift times the largest violation, so every row is (weakly) feasible
// in s, and then both s and z are lifted by jamBalance times Mehrotra's
// balancing terms ½·sᵀz/Σz and ½·sᵀz/Σs, which keep each pair away from
// the boundary in proportion to the current gap. The residuals are
// recomputed exactly afterwards.
func (st *ipmState) recenter() {
	gx := st.scratchM[:st.m]
	_ = st.p.G.MulVec(st.x, gx)
	s, z, h := st.s[:st.m], st.z[:st.m], st.p.H[:st.m]
	var viol float64
	for i := range s {
		s[i] = h[i] - gx[i]
		viol = math.Max(viol, -s[i])
	}
	shift := jamShift * viol
	var sz, sumS, sumZ float64
	for i := range s {
		s[i] += shift
		sz += s[i] * z[i]
		sumS += s[i]
		sumZ += z[i]
	}
	ds := jamBalance * 0.5 * sz / sumZ
	dz := jamBalance * 0.5 * sz / sumS
	var dot float64
	for i := range s {
		s[i] = math.Max(s[i]+ds, stepFloor)
		z[i] = math.Max(z[i]+dz, stepFloor)
		dot += s[i] * z[i]
	}
	st.szDot = dot
	st.computeResiduals()
}

// computeResiduals evaluates rd, rp, the objective and the residuals'
// ∞-norms exactly at the current iterate.
func (st *ipmState) computeResiduals() {
	p := st.p
	// rd = Qx + c + Gᵀz, with Qx first written into rd: the objective
	// ½xᵀQx + cᵀx falls out of the same pass.
	_ = st.sym.qBand.MulVec(st.x, st.rd)
	_ = p.G.MulVecT(st.z, st.scratchN)
	rd, c, x, sn := st.rd[:st.n], p.C[:st.n], st.x[:st.n], st.scratchN[:st.n]
	var obj, rdN float64
	for i := range rd {
		qx := rd[i]
		obj += x[i] * (0.5*qx + c[i])
		v := qx + c[i] + sn[i]
		rd[i] = v
		if v < 0 {
			v = -v
		}
		if v > rdN {
			rdN = v
		}
	}
	st.obj = obj
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
	return mu < tol*(1+math.Abs(st.obj)) && st.residualsConverged(tol)
}

// residualsConverged is the residual half of converged: rd and rp each
// within tol of their scales.
func (st *ipmState) residualsConverged(tol float64) bool {
	return st.rdNorm < tol*(1+st.cNorm)*(1+math.Abs(st.obj)) &&
		st.rpNorm < tol*(1+st.hNorm)
}

// factorKKT runs the numeric factorization phase: refill the packed band
// with H_b = Q + G_bᵀdiag(z/s)G_b (+ regularization) and refactorize in
// place, then the Schur complement of the linking rows. The symbolic
// phase (layout and storage) happened once in newIPMState, so no
// allocation occurs here.
func (st *ipmState) factorKKT() error {
	st.bumped = false
	sInv, wv := st.sInv[:st.m], st.w[:st.m]
	sv, zv := st.s[:st.m], st.z[:st.m]
	for i := range sv {
		sInv[i] = 1 / sv[i]
		wv[i] = zv[i] * sInv[i]
	}
	if err := st.factorKKTFull(); err != nil {
		return err
	}
	if st.link.k == 0 {
		return nil
	}
	if err := st.link.formGram(st.bchol); err != nil {
		return fmt.Errorf("schur: %v: %w", err, ErrNumerical)
	}
	if err := st.link.factorS(wv, st.p.Linking); err != nil {
		return fmt.Errorf("schur: %v: %w", err, ErrNumerical)
	}
	return nil
}

// factorCounted is factorKKT counted in stats.
func (st *ipmState) factorCounted(stats *solveStats) error {
	if err := st.factorKKT(); err != nil {
		return err
	}
	if stats != nil {
		stats.factorizations++
		if st.bumped {
			stats.bumps++
		}
	}
	return nil
}

// predictor solves for the affine direction, pure Newton on the
// residuals with rc = s∘z (no centering), against the current
// factorization, and returns its boundary step lengths.
func (st *ipmState) predictor() (alphaP, alphaD float64, err error) {
	rc, s, z := st.rc[:st.m], st.s[:st.m], st.z[:st.m]
	for i := range rc {
		rc[i] = s[i] * z[i]
	}
	return st.solveDirection()
}

// factorKKTFull is the numeric factorization of the band part proper:
// refill the packed band and refactorize in place.
func (st *ipmState) factorKKTFull() error {
	// Refill the working band: Q's packed band lands in one contiguous
	// copy, regularize goes on the diagonal, then G_bᵀdiag(w)G_b is accumulated on
	// top — the linking rows carry zero weight there, so the assembly
	// skips them. The band is Q's; a band row of G too wide for it is the
	// caller's error.
	n, bw := st.n, st.sym.bw
	_ = st.hBand.CopyFrom(st.sym.qBand)
	st.hBand.AddDiag(regularize)
	if err := st.p.G.AtATWeightedBand(st.link.bandWeights(st.w, st.p.Linking), st.hBand); err != nil {
		return fmt.Errorf("kkt assembly: %v: %w", err, ErrBadProblem)
	}
	if err := st.bchol.Factorize(st.hBand); err != nil {
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
// residuals (rd, rp, rc), storing the direction in dx/ds/dz, and, in the
// same pass that forms (ds, dz), returns the largest steps keeping s and z
// positive, each in (0, 1]. factorKKT must have been called for the
// current (s, z).
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

	if err := st.solveKKT(); err != nil {
		return 0, 0, err
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

// solveKKT solves the factored KKT system in place for the right-hand
// side in dx: through the band factor alone, or through the Schur
// complement of the linking rows (solveLinked).
func (st *ipmState) solveKKT() error {
	if st.link.k > 0 {
		return st.solveLinked()
	}
	if err := st.bchol.Solve(st.dx, st.dx); err != nil {
		return fmt.Errorf("%v: %w", err, ErrNumerical)
	}
	return nil
}

// stepFloor is the positivity floor of s and z.
const stepFloor = 1e-14

// step advances the iterate by αp along (dx, ds) and αd along dz,
// flooring s and z away from zero.
func (st *ipmState) step(alphaP, alphaD float64) {
	linalg.Axpy(alphaP, st.dx[:st.n], st.x[:st.n])
	// s and z advance, floor, and accumulate the complementarity product
	// sᵀz in a single pass; gap() reads the cached product instead of
	// rescanning both vectors every iteration.
	var dot float64
	s, ds := st.s[:st.m], st.ds[:st.m]
	z, dz := st.z[:st.m], st.dz[:st.m]
	for i := range s {
		si := max(s[i]+alphaP*ds[i], stepFloor)
		s[i] = si
		zi := max(z[i]+alphaD*dz[i], stepFloor)
		z[i] = zi
		dot += si * zi
	}
	st.szDot = dot
}

// anytimeInfeasWeight converts primal infeasibility into merit units: an
// anytime snapshot is "better" when objective + weight·‖rp‖∞ is lower.
// The weight is large enough that no realistic objective improvement can
// buy constraint violation, so the best-so-far rule walks toward
// feasibility first and cost second — exactly the preference of a
// controller that must ship an implementable plan at the deadline.
const anytimeInfeasWeight = 1e6

// prepareAnytime arms (or disarms) the per-iteration snapshot. The two
// snapshot buffers are allocated only here, so solves without anytime
// keep the solver's exact allocation count.
func (st *ipmState) prepareAnytime(on bool) {
	st.anytime = on
	st.snapValid = false
	if on && st.snapX == nil {
		st.snapX, st.snapZ = linalg.NewVector(st.n), linalg.NewVector(st.m)
	}
}

// snapshotAnytime records the current iterate when its merit beats the
// best snapshot so far. Pure copies: the solve's own floating-point
// trajectory is untouched, which is what makes the no-deadline anytime
// path bit-identical to the plain solver.
func (st *ipmState) snapshotAnytime(iter int) {
	merit := st.obj + anytimeInfeasWeight*st.rpNorm
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
	copy(st.snapX[:st.n], st.x[:st.n])
	copy(st.snapZ[:st.m], st.z[:st.m])
}

// anytimeResult returns the snapshot as the solve's Result, from the
// arena like any other.
func (st *ipmState) anytimeResult(iters int) *Result {
	return st.claim(st.snapX, st.snapZ, Result{
		Objective:  st.snapObj,
		Iterations: iters,
		Gap:        st.snapMu,
		PrimalRes:  st.snapRpN,
		DualRes:    st.snapRdN,
		Anytime: &AnytimeInfo{
			Iterations: st.snapIter,
			Mu:         st.snapMu,
			PrimalRes:  st.snapRpN,
			DualRes:    st.snapRdN,
			Merit:      st.snapMerit,
		},
	})
}

// resultArena double-buffers the escaping Result storage of a Session.
// Each solve claims the generation the previous one did not, so a result —
// typically feeding the next solve's warm start — stays valid through
// exactly one more solve without any per-solve allocation.
type resultArena struct {
	gen  int
	bufs [2]linalg.Vector
	ress [2]Result
}

// result returns the current iterate as the solve's Result.
func (st *ipmState) result(iters int, mu float64) *Result {
	return st.claim(st.x, st.z, Result{
		Objective:  st.obj,
		Iterations: iters,
		Gap:        mu,
		PrimalRes:  st.rpNorm,
		DualRes:    st.rdNorm,
	})
}

// claim copies x and z into the arena's off generation, claims it as the
// current one, and stores res there with X and IneqDuals pointing at the
// copies.
func (st *ipmState) claim(x, z linalg.Vector, res Result) *Result {
	ar := &st.arena
	ar.gen ^= 1
	g := ar.gen
	if ar.bufs[g] == nil {
		// Allocated at first use: a one-use session needs one generation.
		ar.bufs[g] = linalg.NewVector(st.n + st.m)
	}
	buf := ar.bufs[g]
	res.X = buf[:st.n:st.n]
	copy(res.X, x[:st.n])
	res.IneqDuals = buf[st.n:]
	copy(res.IneqDuals, z[:st.m])
	ar.ress[g] = res
	return &ar.ress[g]
}
