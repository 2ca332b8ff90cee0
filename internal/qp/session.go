package qp

import (
	"context"

	"dspp/internal/telemetry"
)

// Session is the solver: a persistent interior-point working set bound to
// one Problem instance that is solved many times as its data drifts — the
// per-round best-response QPs of Algorithm 2, the per-step MPC solves, the
// cells of a horizon sweep — or once, on a one-use session. The caller may
// rewrite C and H in place between solves; Q, G and every dimension are
// fixed for the session's lifetime.
//
// The working vectors, the packed KKT band and its factor are sized once,
// in NewSession, and results double-buffer inside the session (the
// previous result — usually the next warm start — survives exactly one
// more solve), so a solve allocates nothing. None of this reuse alters a
// bit of the computed iterates: a reused session returns exactly what a
// fresh one does on the same data and warm start.
//
// A Session is not safe for concurrent use; concurrent solvers each hold
// their own session.
type Session struct {
	opts    Options
	anytime bool
	st      *ipmState
}

// NewSession binds a session to p. A problem without a Structure is
// analysed here, once.
func NewSession(p *Problem, opts Options) (*Session, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sym := p.Structure
	if sym == nil {
		var err error
		if sym, err = Analyze(p); err != nil {
			return nil, err
		}
	}
	return &Session{opts: opts.withDefaults(), st: newIPMState(p, sym)}, nil
}

// SetAnytime opts subsequent solves on this session into deadline-bounded
// solving: each iteration the solver snapshots the best-merit iterate
// seen so far, and when the context expires mid-solve it returns that
// snapshot with an error wrapping ErrDeadline (plus Result.Anytime
// metadata) instead of returning nil. Off by default: the snapshot copies
// cost ~3 vector copies per improving iteration and the enabled path
// grows two extra buffers, so only budget-driven callers (the MPC
// degradation ladder, the dsppd daemon) turn it on.
func (s *Session) SetAnytime(on bool) { s.anytime = on }

// SolveCtx runs one solve against the problem's current data, optionally
// warm-started (see runIPM for the algorithm). A good warm start — the
// previous MPC plan shifted one period, or the previous best-response
// round's solution — typically cuts the iteration count severalfold.
// Whether to use it is decided once, before the first iteration: a warm
// start whose dimensions don't match the problem, that holds a non-finite
// entry, or whose seated complementarity gap sᵀz exceeds the admission
// scale Σᵢ max(hᵢ, 1) is refused, and the solve is then bitwise the cold solve
// (see initPoint). Telemetry counts a refused warm start as a cold start.
//
// Every Result the session returns, with or without an error, stays
// valid until the end of the next-but-one solve on this session. No
// closures — the zero-alloc steady state of a session depends on it.
func (s *Session) SolveCtx(ctx context.Context, warm *WarmStart) (*Result, error) {
	st := s.st
	// C and H may have been rewritten since the last solve; their norms
	// feed the convergence scales and must track the data.
	st.cNorm, st.hNorm = st.p.C.NormInf(), st.p.H.NormInf()
	if s.opts.Hooks == nil {
		// Disabled telemetry takes the direct path: a nil stats pointer,
		// no span, no time reads — the hot loop is bit-identical to the
		// uninstrumented solver.
		return runIPM(ctx, st, s.opts, s.anytime, warm, nil)
	}
	hooks := s.opts.Hooks
	sp := hooks.Tracer.Start(telemetry.SpanQPSolve, telemetry.SpanIDFromContext(ctx))
	var stats solveStats
	res, err := runIPM(ctx, st, s.opts, s.anytime, warm, &stats)
	flushQPTelemetry(hooks, sp, res, err, &stats)
	return res, err
}

// Solve is SolveCtx without cancellation.
func (s *Session) Solve(warm *WarmStart) (*Result, error) {
	return s.SolveCtx(context.Background(), warm)
}

// Problem returns the bound problem, whose C and H the caller may rewrite
// in place between solves.
func (s *Session) Problem() *Problem { return s.st.p }
