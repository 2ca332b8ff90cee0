package core

import (
	"context"
	"errors"
	"fmt"

	"dspp/internal/linalg"
	"dspp/internal/qp"
)

// HorizonSession is the one way to solve a horizon QP (the DSPP of §IV-D
// restricted to a window, states substituted out — the computational
// core of Algorithm 1). It is a persistent solver for one (instance,
// horizon length) shape, the workhorse of loops that solve the same
// window over and over: MPC steps, best-response rounds, sweep cells. It
// owns a qp.Session bound to the cached horizon structure, so across
// solves it keeps the interior-point working set, the packed KKT band and
// its factorization, and double-buffered result and plan storage — a
// solve allocates nothing once the session is warm, and every returned
// Plan is bitwise identical to what a fresh session produces for the
// same input.
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

	ses *qp.Session
	ws  qp.WarmStart
	// shift holds the vectors of a shifted warm start (HorizonWarm.shifted),
	// reused across solves.
	shift qp.WarmStart
	arena [2]planArena
	gen   int
}

// NewHorizonSession binds a session to the instance for horizon length w.
// Capacity values may change between solves (SetCapacities); the horizon
// length, feasibility pattern, and SLA structure are fixed.
func (in *Instance) NewHorizonSession(w int, opts qp.Options) (*HorizonSession, error) {
	return in.newHorizonSession(w, opts, false)
}

// newHorizonSession binds a session to the hard structure, or with soft
// set to the soft-constrained relaxation: per (step, location) a slack
// variable s_t^v ≥ 0 absorbs demand the allocation cannot serve,
// penalized linearly at DefaultShedPenalty (plus a tiny quadratic
// regularizer). Capacity and nonnegativity stay hard — they are physical
// — so the relaxation is always feasible: in the worst case the
// allocation drains to zero and all demand is shed. It is the
// degradation ladder's soft rung: when the hard QP is infeasible or
// numerically stuck, the controller still gets a usable plan plus an
// explicit report of the demand it had to shed (Plan.Shed).
//
// A soft session skips the demand-ceiling check (excess demand is what
// its slacks absorb) and solves cold: its plans carry no warm capsule,
// their Objective includes the shed penalty terms, and the session is
// never anytime.
func (in *Instance) newHorizonSession(w int, opts qp.Options, soft bool) (*HorizonSession, error) {
	if w <= 0 {
		return nil, fmt.Errorf("horizon %d: %w", w, ErrBadInput)
	}
	hs, err := in.horizonStructure(w, soft)
	if err != nil {
		return nil, err
	}
	prob := hs.problem(linalg.NewVector(hs.n), linalg.NewVector(w*hs.rowsPerStep))
	ses, err := qp.NewSession(&prob, opts)
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
// right-hand-side vectors in place, and solves once, warm-started from
// input.Warm when its shape matches and the solver admits it: a capsule
// that is non-finite, or further from complementarity than the
// solver's admission scale, is refused before the first iteration and
// the solve runs cold (see qp.Session.SolveCtx); a failed solve is not
// retried. ctx is
// polled once per interior-point iteration, so a stuck solve terminates within one iteration of ctx
// expiring and the returned error wraps ctx.Err(). With SetAnytime on, a
// solve stopped by its deadline returns its best iterate as a plan (with
// Plan.Anytime set) alongside an error wrapping qp.ErrDeadline.
func (s *HorizonSession) SolveCtx(ctx context.Context, input HorizonInput) (*Plan, error) {
	in, soft := s.in, s.hs.soft
	w, err := in.checkHorizonInput(input, !soft)
	if err != nil {
		return nil, err
	}
	if w != s.w {
		return nil, fmt.Errorf("session horizon %d, input horizon %d: %w", s.w, w, ErrBadInput)
	}
	prob := s.ses.Problem()
	constCost := in.fillHorizonVectors(s.hs, input, prob.C, prob.H)
	var warm *qp.WarmStart
	if !soft {
		warm = input.Warm.shifted(s.hs, input.WarmShift, &s.ws, &s.shift)
	}
	res, err := s.ses.SolveCtx(ctx, warm)
	s.ws = qp.WarmStart{} // drop the borrowed warm-start slices
	if err != nil {
		name := "horizon QP"
		if soft {
			name = "soft horizon QP"
		}
		err = fmt.Errorf("%s (W=%d, n=%d, m=%d): %w", name, w, s.hs.n, w*s.hs.rowsPerStep, err)
		if res == nil || !errors.Is(err, qp.ErrDeadline) {
			return nil, err
		}
		// Anytime return: the result is the best iterate at the deadline.
		// Hand back a full plan alongside the error so the degradation
		// ladder can take the anytime rung; callers that ignore the plan
		// see a plain error.
		s.gen ^= 1
		plan := in.buildPlan(s.hs, input, res, constCost, &s.arena[s.gen])
		plan.Anytime = res.Anytime
		return plan, err
	}
	s.gen ^= 1
	return in.buildPlan(s.hs, input, res, constCost, &s.arena[s.gen]), nil
}
