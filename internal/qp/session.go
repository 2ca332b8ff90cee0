package qp

import (
	"context"

	"dspp/internal/telemetry"
)

// Session is a persistent solver bound to one Problem instance that will
// be solved many times as its data drifts: the per-round best-response
// QPs of Algorithm 2, the per-step MPC solves, the cells of a horizon
// sweep. The caller may rewrite C and H in place between solves; Q, G
// and every dimension are fixed for the session's lifetime.
//
// Against the one-shot SolveWarmCtx path a session changes two things,
// neither of which alters a single bit of the computed iterates:
//
//   - State lifetime: the working vectors, packed KKT band, and factor
//     live for the session instead of bouncing through the state pool.
//   - Result storage: results double-buffer inside the session (the
//     previous result — usually the next warm start — survives exactly
//     one more solve), eliminating the last two allocations per solve.
//
// A Session is not safe for concurrent use; concurrent solvers each hold
// their own session.
type Session struct {
	p       *Problem
	opts    Options
	anytime bool
	st      *ipmState
	arena   resultArena
}

// NewSession binds a session to p.
func NewSession(p *Problem, opts Options) (*Session, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Session{p: p, opts: opts.withDefaults()}
	s.st = newIPMState(p)
	s.st.arena = &s.arena
	return s, nil
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
// warm-started. Iterates are bit-identical to SolveWarmCtx on the same
// data. The returned Result's slices remain valid until the end of the
// next-but-one solve on this session. No closures — the zero-alloc
// steady state of a session depends on it.
func (s *Session) SolveCtx(ctx context.Context, warm *WarmStart) (*Result, error) {
	st := s.st
	// C and H may have been rewritten since the last solve; their norms
	// feed the convergence scales and must track the data.
	st.dataNorms()
	if s.opts.Hooks == nil {
		return runIPM(ctx, st, s.opts, s.anytime, warm, nil)
	}
	hooks := s.opts.Hooks
	sp := hooks.Tracer.Start(telemetry.SpanQPSolve, telemetry.SpanIDFromContext(ctx))
	var stats solveStats
	res, err := runIPM(ctx, st, s.opts, s.anytime, warm, &stats)
	flushQPTelemetry(hooks, sp, warm, res, err, &stats)
	return res, err
}

// Solve is SolveCtx without cancellation.
func (s *Session) Solve(warm *WarmStart) (*Result, error) {
	return s.SolveCtx(context.Background(), warm)
}

// Problem returns the bound problem, whose C and H the caller may rewrite
// in place between solves.
func (s *Session) Problem() *Problem { return s.p }
