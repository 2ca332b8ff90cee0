// Package qp solves convex quadratic programs of the form
//
//	minimize   ½ xᵀQx + qᵀx
//	subject to G x ≤ h        (m ≥ 1 inequality constraints)
//
// with a primal–dual interior-point method (Mehrotra predictor–corrector).
// Q must be symmetric positive semidefinite; the solver adds a tiny static
// regularization so strictly convex behaviour is recovered numerically.
//
// The solver reports both the primal solution and the dual multipliers of
// the inequality constraints. The duals are consumed directly by the
// resource-competition game (paper Algorithm 2), which reallocates data
// center quotas proportionally to the capacity-constraint duals.
package qp

import (
	"errors"
	"fmt"

	"dspp/internal/linalg"
	"dspp/internal/telemetry"
)

// Sentinel errors reported by Session.SolveCtx.
var (
	// ErrMaxIterations means the iteration limit was reached before the
	// tolerances were met. The best iterate found is still returned.
	ErrMaxIterations = errors.New("qp: maximum iterations reached")
	// ErrNumerical means a linear solve inside the IPM failed
	// (typically a singular or indefinite KKT system).
	ErrNumerical = errors.New("qp: numerical failure")
	// ErrBadProblem means the problem dimensions are inconsistent.
	ErrBadProblem = errors.New("qp: inconsistent problem dimensions")
	// ErrDeadline means the context expired mid-solve on a Session with
	// SetAnytime on and the best iterate seen so far was returned instead of nil. The
	// returned error wraps both this sentinel and the context's own error,
	// so errors.Is works against either; Result.Anytime carries the
	// iterate-quality metadata the caller needs to judge the partial plan.
	ErrDeadline = errors.New("qp: deadline reached, returning best iterate")
)

// Problem is a convex QP instance in the one shape the solver takes: a
// packed band Q, a CSR G with at least one row, and the rows of G that
// couple Q's blocks declared as linking rows.
//
// Each interior-point iteration solves with H = Q + Gᵀdiag(w)G. The
// solver splits it as H = H_b + A_Lᵀ W_L A_L: the band part H_b holds Q
// and every row of G except the linking rows, and is factored with a band
// Cholesky; the linking rows A_L enter through the dense Schur complement
// S = W_L⁻¹ + A_L H_b⁻¹ A_Lᵀ. A block-angular problem — independent
// diagonal blocks coupled only by a few rows — keeps H_b's band as narrow
// as one block, and S is formed block by block.
type Problem struct {
	Q *linalg.BandMatrix   // n×n, symmetric PSD
	C linalg.Vector        // n, linear cost term q
	G *linalg.SparseMatrix // m×n, m ≥ 1
	H linalg.Vector        // m

	// Linking lists, strictly ascending, the rows of G kept out of the band
	// factor and handled through the Schur complement. Nil means every row
	// is in the band.
	//
	// Q's bandwidth is the KKT band: every row of G not in Linking must
	// span at most that many columns (a row that does not fails the first
	// factorization with ErrBadProblem).
	Linking []int

	// Structure, when set, is the symbolic analysis of this problem's Q,
	// G and Linking (Analyze): solves read it instead of analysing the
	// problem themselves. It must come from matrices identical to these;
	// Validate rejects any other.
	Structure *Structure
}

// Validate checks dimensional consistency.
func (p *Problem) Validate() error {
	if err := p.validateMatrices(); err != nil {
		return err
	}
	n := p.Q.N()
	if len(p.C) != n {
		return fmt.Errorf("c has %d entries, n=%d: %w", len(p.C), n, ErrBadProblem)
	}
	if p.G.Rows() != len(p.H) {
		return fmt.Errorf("G has %d rows, h has %d: %w", p.G.Rows(), len(p.H), ErrBadProblem)
	}
	if p.Structure != nil && !p.Structure.matches(p) {
		return fmt.Errorf("structure analysed for other Q, G or linking rows: %w", ErrBadProblem)
	}
	return nil
}

// validateMatrices checks the fixed part of the problem — Q, G and
// Linking — which is all Analyze reads.
func (p *Problem) validateMatrices() error {
	if p.Q == nil {
		return fmt.Errorf("nil Q: %w", ErrBadProblem)
	}
	if p.G == nil || p.G.Rows() == 0 {
		return fmt.Errorf("no inequality rows: %w", ErrBadProblem)
	}
	n := p.Q.N()
	if p.G.Cols() != n {
		return fmt.Errorf("G has %d cols, n=%d: %w", p.G.Cols(), n, ErrBadProblem)
	}
	m := p.NumIneq()
	for k, r := range p.Linking {
		if r < 0 || r >= m || (k > 0 && r <= p.Linking[k-1]) {
			return fmt.Errorf("linking row %d (entry %d) not ascending within [0,%d): %w", r, k, m, ErrBadProblem)
		}
	}
	return nil
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.Q.N() }

// NumIneq returns the number of inequality constraints.
func (p *Problem) NumIneq() int { return p.G.Rows() }

// WarmStart seeds the interior-point iteration from a previous solution of
// a nearby problem — the same window re-solved under slightly different
// data (best-response rounds) or the previous MPC plan shifted by one
// period. Vectors are copied, not retained.
type WarmStart struct {
	// X is the primal guess (length n). Required.
	X linalg.Vector
	// Z holds inequality-dual guesses (length m). Optional; entries are
	// floored away from zero so the iteration stays interior.
	Z linalg.Vector
}

// Result holds the outcome of one session solve.
type Result struct {
	X          linalg.Vector // primal solution
	IneqDuals  linalg.Vector // z ≥ 0, multipliers of Gx ≤ h
	Objective  float64       // objective value at X
	Iterations int           // IPM iterations performed
	Gap        float64       // final average complementarity gap sᵀz/m
	PrimalRes  float64       // final primal residual (∞-norm)
	DualRes    float64       // final dual residual (∞-norm)

	// Loose marks a solve that reached MaxIterations and was accepted
	// only because it met the loosened tolerance Tolerance·1e4 — an MPC
	// loop prefers a usable near-optimal control to an error, but the
	// result is not converged to Tolerance.
	Loose bool

	// Anytime is set only when the solve returned early with ErrDeadline:
	// the X/duals above are then the best-merit iterate snapshotted during
	// the interrupted run, and this block records how far that iterate got.
	// Nil on every complete solve.
	Anytime *AnytimeInfo
}

// AnytimeInfo is the iterate-quality metadata attached to a deadline
// (anytime) result: how many iterations the snapshot completed, the
// complementarity gap and residual norms at the snapshot, and the merit
// value (objective + infeasibility penalty) the best-so-far rule minimized.
type AnytimeInfo struct {
	Iterations int     // IPM iterations completed when the snapshot was taken
	Mu         float64 // average complementarity gap sᵀz/m at the snapshot
	PrimalRes  float64 // primal residual ∞-norm at the snapshot
	DualRes    float64 // dual residual ∞-norm at the snapshot
	Merit      float64 // objective + anytimeInfeasWeight·primal residual
}

// Options tunes the interior-point solver. The zero value is usable via
// DefaultOptions. Every shipped caller leaves MaxIterations and Tolerance
// at their defaults; they stay settable because tests drive the capped
// and the loosely converged outcomes through them. Hooks is set by the
// telemetry wiring. Deadline-bounded (anytime) solving is not an option:
// it belongs to a Session (see Session.SetAnytime).
type Options struct {
	MaxIterations int     // default 100
	Tolerance     float64 // residual/gap tolerance, default 1e-8

	// Hooks, when non-nil, receives solver telemetry: per-solve counters
	// (iterations, factorizations, regularization bumps, corrector skips,
	// warm vs. cold starts, failure modes) and a qp_solve span per call.
	// Nil disables instrumentation entirely — the solve path then pays one
	// pointer test and keeps its exact allocation count (see
	// TestAllocsIndependentOfIterationCount).
	Hooks *telemetry.QPHooks
}

// stepScale is the fraction-to-boundary factor far from the solution, and
// regularize the static shift on the KKT band's diagonal; both are fixed
// for every solve.
const (
	stepScale  = 0.99
	regularize = 1e-12
)

// DefaultOptions returns the recommended solver settings.
func DefaultOptions() Options {
	return Options{
		MaxIterations: 100,
		Tolerance:     1e-8,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MaxIterations <= 0 {
		o.MaxIterations = d.MaxIterations
	}
	if o.Tolerance <= 0 {
		o.Tolerance = d.Tolerance
	}
	return o
}
