package core

import (
	"context"
	"errors"
	"fmt"

	"dspp/internal/linalg"
	"dspp/internal/qp"
)

// HorizonSession is a persistent solver for one (instance, horizon
// length) shape, the workhorse of loops that solve the same window over
// and over: MPC steps, best-response rounds, sweep cells. It owns a
// qp.Session bound to the cached horizon structure, so across solves it
// keeps the interior-point working set, the packed KKT band and its
// factorization, and double-buffered result and plan storage — a solve
// allocates nothing once the session is warm, and every returned Plan is
// bitwise identical to what the one-shot SolveHorizonCtx produces for
// the same input.
//
// Lifetimes: a returned Plan (including its warm capsule and the slices
// inside) stays valid until the end of the next-but-one solve on this
// session — exactly long enough to be consumed as the next solve's warm
// start and compared against the next plan. Callers that keep plans
// longer must copy what they need. Not safe for concurrent use.
type HorizonSession struct {
	in *Instance
	hs *horizonStruct
	w  int

	ses   *qp.Session
	ws    qp.WarmStart
	arena [2]planArena
	gen   int
}

// NewHorizonSession binds a session to the instance for horizon length w.
// Capacity values may change between solves (SetCapacities); the horizon
// length, feasibility pattern, and SLA structure are fixed.
func (in *Instance) NewHorizonSession(w int, opts qp.Options) (*HorizonSession, error) {
	if w <= 0 {
		return nil, fmt.Errorf("horizon %d: %w", w, ErrBadInput)
	}
	hs, err := in.horizonStructure(w, false)
	if err != nil {
		return nil, err
	}
	prob := &qp.Problem{
		Q: hs.q, C: linalg.NewVector(hs.n), G: hs.g, H: linalg.NewVector(w * hs.rowsPerStep),
		Linking: hs.linking,
	}
	ses, err := qp.NewSession(prob, opts)
	if err != nil {
		return nil, err
	}
	return &HorizonSession{in: in, hs: hs, w: w, ses: ses}, nil
}

// Horizon returns the session's fixed horizon length.
func (s *HorizonSession) Horizon() int { return s.w }

// SetAnytime toggles deadline-bounded anytime solving for subsequent
// solves: when enabled, a solve stopped by its context's deadline returns
// its best iterate alongside qp.ErrDeadline instead of a bare error.
func (s *HorizonSession) SetAnytime(on bool) { s.ses.SetAnytime(on) }

// Solve is SolveCtx without cancellation.
func (s *HorizonSession) Solve(input HorizonInput) (*Plan, error) {
	return s.SolveCtx(context.Background(), input)
}

// SolveCtx validates the input, refills the session problem's cost and
// right-hand-side vectors in place, and solves — with the same
// warm-start handling and cold-restart retry as SolveHorizonCtx.
func (s *HorizonSession) SolveCtx(ctx context.Context, input HorizonInput) (*Plan, error) {
	in := s.in
	w, err := in.checkHorizonInput(input, true)
	if err != nil {
		return nil, err
	}
	if w != s.w {
		return nil, fmt.Errorf("session horizon %d, input horizon %d: %w", s.w, w, ErrBadInput)
	}
	prob := s.ses.Problem()
	constCost := in.fillHorizonVectors(s.hs, input, 0, prob.C, prob.H)
	warm := input.Warm.shifted(s.hs, input.WarmShift, &s.ws)
	res, err := s.ses.SolveCtx(ctx, warm)
	coldRestarts := 0
	if err != nil && warm != nil && (errors.Is(err, qp.ErrNumerical) || errors.Is(err, qp.ErrMaxIterations)) {
		// Same policy as the one-shot path: a badly sitting warm point is
		// retried once from a cold start before failing. Iteration
		// exhaustion counts — a warm plan solved under capacities several
		// quota rounds old can stall the interior point the same way a
		// numerical breakdown does.
		coldRestarts = 1
		res, err = s.ses.SolveCtx(ctx, nil)
	}
	s.ws = qp.WarmStart{} // drop the borrowed warm-start slices
	if err != nil {
		if res != nil && errors.Is(err, qp.ErrDeadline) {
			// Same anytime contract as the one-shot path: plan and error
			// both non-nil, so the ladder can use the partial iterate.
			s.gen ^= 1
			plan := in.buildPlan(s.hs, input, res, coldRestarts, constCost, &s.arena[s.gen])
			plan.Anytime = res.Anytime
			return plan, fmt.Errorf("horizon QP (W=%d, n=%d, m=%d): %w", w, s.hs.n, w*s.hs.rowsPerStep, err)
		}
		return nil, fmt.Errorf("horizon QP (W=%d, n=%d, m=%d): %w", w, s.hs.n, w*s.hs.rowsPerStep, err)
	}
	s.gen ^= 1
	return in.buildPlan(s.hs, input, res, coldRestarts, constCost, &s.arena[s.gen]), nil
}
