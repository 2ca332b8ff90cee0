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
	rankK bool
	ws    qp.WarmStart
	arena [2]planArena
	gen   int

	// Fast-resolve state: the input and constant cost of the last full
	// solve (whose vectors the session problem still holds) and the
	// capacity values baked into the H vector per capacitated DC. A
	// ResolveCapacitiesCtx is only meaningful while the caller's input
	// buffers are bitwise unchanged since that solve; lastOK tracks
	// whether a standing solve exists to continue from.
	lastInput HorizonInput
	lastConst float64
	lastOK    bool
	capSnap   []float64
	rowBuf    []int
	deltaBuf  []float64
}

// NewHorizonSession binds a session to the instance for horizon length w.
// Capacity values may change between solves (SetCapacities); the horizon
// length, feasibility pattern, and SLA structure are fixed.
func (in *Instance) NewHorizonSession(w int, opts qp.Options) (*HorizonSession, error) {
	return in.NewHorizonSessionOpts(w, opts, qp.SessionOptions{})
}

// NewHorizonSessionOpts is NewHorizonSession with explicit qp session
// options — decomposition callers enable SessionOptions.RankK so that
// capacity-only re-solves (ResolveCapacitiesCtx) run as checkpointed
// queries that keep the standing factorization where they can.
func (in *Instance) NewHorizonSessionOpts(w int, opts qp.Options, sopts qp.SessionOptions) (*HorizonSession, error) {
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
	ses, err := qp.NewSessionOpts(prob, opts, sopts)
	if err != nil {
		return nil, err
	}
	return &HorizonSession{
		in: in, hs: hs, w: w, ses: ses, rankK: sopts.RankK,
		capSnap: make([]float64, len(hs.capacitated)),
	}, nil
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
	// The H vector now embeds the instance's current capacities; snapshot
	// them so a later ResolveCapacitiesCtx perturbs against the right
	// baseline. The input/constant-cost record is refreshed alongside.
	for ci, l := range s.hs.capacitated {
		s.capSnap[ci] = in.capacity[l]
	}
	s.lastInput, s.lastConst, s.lastOK = input, constCost, false
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
	s.lastOK = true
	return in.buildPlan(s.hs, input, res, coldRestarts, constCost, &s.arena[s.gen]), nil
}

// CanResolveCapacities reports whether a standing converged solve exists
// for ResolveCapacitiesCtx to continue from. It turns false whenever a
// solve fails, hits its deadline, or has not happened yet.
func (s *HorizonSession) CanResolveCapacities() bool { return s.lastOK }

// ResolveCapacitiesCtx re-solves the horizon after only the instance's
// capacity values moved since the last successful SolveCtx — the quota
// re-division step of the decomposed coordination loop, where each round
// perturbs exactly the shared DCs' capacity rows. Each changed capacity
// becomes a slack-carried perturbation on its W capacity rows (the
// iterate stays strictly feasible), and the interior-point iteration
// continues from the standing near-optimal iterate instead of warm-
// restarting. With the session's RankK option on, the resolve runs as a
// checkpoint-and-query cycle: the factorization is armed at the
// converged iterate, so the query's first factorization only sees the
// perturbed rows move — linking capacity rows (a DC serving several
// locations) keep the band factor and refactor the small Schur
// complement, band capacity rows take a banded rank-k update — rather
// than a refill+refactorize (a plain continuation always refactorizes:
// its standing factor predates the final iterate, so the weight diff
// spans every row). The caller must not have touched X0/Demand/Prices since
// the last solve: the C vector, the demand and nonnegativity rows of H,
// and the rebuilt Plan all reuse that input. On a non-deadline error the
// standing solve is invalidated and the caller should fall back to a
// full SolveCtx.
func (s *HorizonSession) ResolveCapacitiesCtx(ctx context.Context) (*Plan, error) {
	if !s.lastOK {
		return nil, fmt.Errorf("capacity resolve without a standing solve: %w", ErrBadInput)
	}
	in := s.in
	rows, deltas := s.rowBuf[:0], s.deltaBuf[:0]
	for ci, l := range s.hs.capacitated {
		c := in.capacity[l]
		if c == s.capSnap[ci] {
			continue
		}
		delta := c - s.capSnap[ci]
		s.capSnap[ci] = c
		for t := 0; t < s.w; t++ {
			rows = append(rows, t*s.hs.rowsPerStep+in.v+ci)
			deltas = append(deltas, delta)
		}
	}
	s.rowBuf, s.deltaBuf = rows, deltas
	var res *qp.Result
	var err error
	if s.rankK && len(rows) > 0 {
		if err = s.ses.Checkpoint(); err != nil {
			s.lastOK = false
			return nil, fmt.Errorf("horizon QP resolve checkpoint (W=%d): %w", s.w, err)
		}
		res, err = s.ses.ResolvePerturbedCtx(ctx, rows, deltas)
	} else {
		for k, i := range rows {
			s.ses.PerturbH(i, deltas[k])
		}
		res, err = s.ses.ResolveCtx(ctx)
	}
	if err != nil {
		s.lastOK = false
		if res != nil && errors.Is(err, qp.ErrDeadline) {
			s.gen ^= 1
			plan := in.buildPlan(s.hs, s.lastInput, res, 0, s.lastConst, &s.arena[s.gen])
			plan.Anytime = res.Anytime
			return plan, fmt.Errorf("horizon QP resolve (W=%d, rows=%d): %w", s.w, len(rows), err)
		}
		return nil, fmt.Errorf("horizon QP resolve (W=%d, rows=%d): %w", s.w, len(rows), err)
	}
	s.gen ^= 1
	return in.buildPlan(s.hs, s.lastInput, res, 0, s.lastConst, &s.arena[s.gen]), nil
}

// Stats reports the underlying qp session's factorization accounting —
// full factorizations, band-factor reuses, and rank-k updates.
func (s *HorizonSession) Stats() qp.SessionStats { return s.ses.Stats() }
