package qp

import (
	"context"
	"fmt"

	"dspp/internal/telemetry"
)

// Session is a persistent solver bound to one Problem instance that will
// be solved many times as its data drifts: the per-round best-response
// QPs of Algorithm 2, the per-step MPC solves, the cells of a horizon
// sweep. The caller may rewrite C and H in place between solves; Q, G, A
// and every dimension are fixed for the session's lifetime.
//
// Against the one-shot SolveWarmCtx path a session changes three things,
// none of which alters a single bit of the computed iterates:
//
//   - State lifetime: the working vectors, packed KKT band, and factor
//     live for the session instead of bouncing through the state pool.
//   - Result storage: results double-buffer inside the session (the
//     previous result — usually the next warm start — survives exactly
//     one more solve), eliminating the last two allocations per solve.
//   - Factorization reuse: when a solve's z/s weights are bitwise
//     identical to the ones that produced the standing factor, the
//     refill+factorize is skipped outright; when only linking-row weights
//     moved, the band factor is kept and only the Schur complement is
//     refactored; with SessionOptions.RankK, a handful of changed band
//     weights advances the factor by banded rank-1 updates instead (see
//     ResolveCtx).
//
// A Session is not safe for concurrent use; concurrent solvers each hold
// their own session (they still share symbolic analysis through the
// process-wide registry).
type Session struct {
	p    *Problem
	opts Options

	st    *ipmState
	fr    factorReuse
	arena resultArena
	// hot marks the iterate in st as the final point of a successful
	// solve, the precondition for ResolveCtx's continuation path.
	hot bool

	// Checkpoint state: the saved baseline iterate and bound vector for
	// ResolvePerturbedCtx queries.
	ckSet         bool
	ckX, ckS, ckZ []float64
	ckY, ckH      []float64
}

// SessionOptions selects session-only behavior on top of Options.
type SessionOptions struct {
	// RankK enables the rank-k factorization-update tier: solves whose
	// KKT weights differ from the standing factor's in only a few rows
	// (sparse capacity or price perturbations on a converged iterate)
	// update the factor in place instead of refactorizing. The updated
	// factor agrees with a fresh one to rounding (~1e-10 relative), not
	// bit for bit — leave it off where bit-identical replay matters.
	RankK bool
}

// NewSession binds a session to p with exact-reuse enabled and the
// rank-k tier off (the bit-identical configuration).
func NewSession(p *Problem, opts Options) (*Session, error) {
	return NewSessionOpts(p, opts, SessionOptions{})
}

// NewSessionOpts is NewSession with explicit session options.
func NewSessionOpts(p *Problem, opts Options, sopts SessionOptions) (*Session, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.NumIneq() == 0 {
		return nil, fmt.Errorf("session requires inequality constraints: %w", ErrBadProblem)
	}
	s := &Session{p: p, opts: opts.withDefaults()}
	s.st = newIPMState(p, p.NumVars(), p.NumIneq(), p.NumEq())
	s.st.arena = &s.arena
	if p.NumEq() == 0 {
		// The reuse tiers assume the inequality-only band factorization;
		// the Schur pieces of equality-constrained problems rebuild every
		// iteration regardless, so those sessions run without reuse.
		s.fr.rankK = sopts.RankK
		s.st.reuse = &s.fr
	}
	return s, nil
}

// SetAnytime toggles Options.Anytime for subsequent solves on this
// session: deadline-bounded callers enable it so a solve stopped by its
// context hands back the best iterate (ErrDeadline contract) instead of
// only an error. Off by default — the snapshot copies cost a little per
// improving iteration, so unbudgeted callers shouldn't pay for them.
func (s *Session) SetAnytime(on bool) { s.opts.Anytime = on }

// SolveCtx runs one solve against the problem's current data, optionally
// warm-started. Iterates are bit-identical to SolveWarmCtx on the same
// data (with RankK off). The returned Result's slices remain valid until
// the end of the next-but-one solve on this session.
func (s *Session) SolveCtx(ctx context.Context, warm *WarmStart) (*Result, error) {
	return s.run(ctx, warm, false)
}

// Solve is SolveCtx without cancellation.
func (s *Session) Solve(warm *WarmStart) (*Result, error) {
	return s.SolveCtx(context.Background(), warm)
}

// ResolveCtx continues the interior-point iteration from the previous
// solve's final iterate — no warm-start re-centering, no slack
// recomputation. It is the hot path after PerturbH: the iterate is
// already near-optimal for the perturbed problem, only the perturbed
// rows' z/s weights have moved, and (with RankK on) the factorization
// advances by a rank-k update instead of a refactorization. Without a
// prior successful solve it degrades to a cold SolveCtx.
func (s *Session) ResolveCtx(ctx context.Context) (*Result, error) {
	if !s.hot {
		return s.SolveCtx(ctx, nil)
	}
	return s.run(ctx, nil, true)
}

// run wraps one solve (cont=false: fresh start from warm; cont=true:
// continue from the standing iterate) with norm refresh, hot tracking,
// and the optional telemetry envelope. No closures — the zero-alloc
// steady state of a session depends on it.
func (s *Session) run(ctx context.Context, warm *WarmStart, cont bool) (*Result, error) {
	st := s.st
	// C and H may have been rewritten since the last solve; their norms
	// feed the convergence scales and must track the data.
	st.cNorm = s.p.C.NormInf()
	st.hNorm = s.p.H.NormInf()
	s.hot = false
	var res *Result
	var err error
	if s.opts.Hooks == nil {
		res, err = s.dispatch(ctx, warm, cont, nil)
	} else {
		hooks := s.opts.Hooks
		sp := hooks.Tracer.Start(telemetry.SpanQPSolve, telemetry.SpanIDFromContext(ctx))
		var stats solveStats
		res, err = s.dispatch(ctx, warm, cont, &stats)
		flushQPTelemetry(hooks, sp, warm, res, err, &stats)
	}
	s.hot = err == nil
	return res, err
}

func (s *Session) dispatch(ctx context.Context, warm *WarmStart, cont bool, stats *solveStats) (*Result, error) {
	if cont {
		return iterateIPM(ctx, s.st, s.opts, stats)
	}
	return runIPM(ctx, s.st, s.opts, warm, stats)
}

// PerturbH shifts inequality bound row i by delta, carrying the current
// slack along with it: h and s move together, so the primal residual
// Gx + s − h is unchanged and the iterate stays strictly feasible —
// unless the shift would push the slack to the boundary, where it is
// clamped to the same interior floor warm starts use (the next solve
// then re-centers that row). Only row i's z/s weight changes, which is
// exactly the sparse-Δw shape the rank-k tier consumes.
func (s *Session) PerturbH(i int, delta float64) {
	s.p.H[i] += delta
	if !s.hot {
		return
	}
	st := s.st
	si := st.s[i] + delta
	if floor := 1e-7 * (1 + abs(s.p.H[i])); si < floor {
		si = floor
	}
	st.s[i] = si
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Checkpoint saves the current (converged) iterate and bound vector as
// the baseline for ResolvePerturbedCtx queries, and arms the standing
// factorization at that iterate with one full refactorization. Arming is
// what makes the queries cheap: every query restores the baseline
// bitwise, so its KKT weights differ from the armed factor's in exactly
// the perturbed rows — the sparse diff the rank-k update tier consumes.
// Requires a successful prior solve.
func (s *Session) Checkpoint() error {
	if !s.hot {
		return fmt.Errorf("checkpoint without a converged iterate: %w", ErrBadProblem)
	}
	st := s.st
	s.ckX = append(s.ckX[:0], st.x[:st.n]...)
	s.ckS = append(s.ckS[:0], st.s[:st.m]...)
	s.ckZ = append(s.ckZ[:0], st.z[:st.m]...)
	s.ckY = append(s.ckY[:0], st.y[:st.q]...)
	s.ckH = append(s.ckH[:0], s.p.H...)
	s.ckSet = true
	if st.reuse != nil {
		// One factorization at the baseline weights; factorKKT records them
		// as the reuse state the first query will diff against.
		if err := st.factorKKT(s.opts.Regularize); err != nil {
			return err
		}
	}
	return nil
}

// ResolvePerturbedCtx answers a sensitivity query against the checkpoint:
// what does the optimum become when inequality bound row rows[k] shifts
// by deltas[k]? The baseline iterate and bounds are restored bitwise,
// the perturbations applied with the slack carried along (see PerturbH),
// and the iteration continued from there. Because the restore is exact,
// consecutive queries present the armed factorization with weight diffs
// confined to the perturbed rows, so (with RankK on) the first
// factorization of each query is a banded rank-k update rather than a
// refill+refactorize; queries that wander further — large perturbations
// needing several iterations — fall back to full factorizations
// automatically and re-arm for the next query only through Checkpoint.
func (s *Session) ResolvePerturbedCtx(ctx context.Context, rows []int, deltas []float64) (*Result, error) {
	if !s.ckSet {
		return nil, fmt.Errorf("resolve-perturbed without a checkpoint: %w", ErrBadProblem)
	}
	if len(rows) != len(deltas) {
		return nil, fmt.Errorf("%d rows, %d deltas: %w", len(rows), len(deltas), ErrBadProblem)
	}
	st := s.st
	copy(st.x[:st.n], s.ckX)
	copy(st.s[:st.m], s.ckS)
	copy(st.z[:st.m], s.ckZ)
	copy(st.y[:st.q], s.ckY)
	copy(s.p.H, s.ckH)
	s.hot = true
	for k, i := range rows {
		s.PerturbH(i, deltas[k])
	}
	return s.run(ctx, nil, true)
}

// SessionStats is the session's cumulative factorization accounting.
type SessionStats struct {
	// Factorizations counts full numeric refactorizations.
	Factorizations uint64
	// Reused counts factorizations that kept the band factor: the KKT
	// weights were bitwise unchanged, or only linking-row weights moved
	// (then only the Schur complement was refactored).
	Reused uint64
	// RankKUpdates counts factorizations advanced by in-place rank-k
	// updates.
	RankKUpdates uint64
}

// Stats reports the session's factorization accounting (all zeros on
// equality-constrained sessions, where reuse is disabled).
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Factorizations: s.fr.fullTotal,
		Reused:         s.fr.reusedTotal,
		RankKUpdates:   s.fr.rankkTotal,
	}
}

// Problem returns the bound problem, whose C and H the caller may rewrite
// in place between solves.
func (s *Session) Problem() *Problem { return s.p }
