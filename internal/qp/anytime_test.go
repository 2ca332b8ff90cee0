package qp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"dspp/internal/linalg"
)

// tripCtx is a deterministic deadline: Err returns nil for the first
// `trip` polls and context.DeadlineExceeded ever after. The solver polls
// the context exactly once per IPM iteration, so trip=k expires the solve
// at the top of iteration k — no wall clocks, no flakiness under -race.
type tripCtx struct {
	context.Context
	calls atomic.Int64
	trip  int64
}

func newTripCtx(trip int) *tripCtx {
	return &tripCtx{Context: context.Background(), trip: int64(trip)}
}

func (c *tripCtx) Err() error {
	if c.calls.Add(1) > c.trip {
		return context.DeadlineExceeded
	}
	return nil
}

// anytimeTestProblem builds a dense inequality-constrained QP that takes a
// healthy number of IPM iterations from a cold start, so the deadline can
// be exercised at many distinct iteration counts.
func anytimeTestProblem(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n, m := 10, 24
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		q[i][i] = 1
	}
	c := linalg.NewVector(n)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	rows := make([][]float64, m)
	h := linalg.NewVector(m)
	for i := 0; i < m; i++ {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
		h[i] = 0.5 + rng.Float64()
	}
	return denseQP(t, q, c, rows, h)
}

// anytimeSession binds a session with anytime solving on to p.
func anytimeSession(t *testing.T, p *Problem) *Session {
	t.Helper()
	ses, err := NewSession(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ses.SetAnytime(true)
	return ses
}

// TestAnytimeDeadlineEveryIteration forces the deadline at every possible
// iteration count k = 0..N+1 and asserts the anytime contract at each: a
// non-nil result with ErrDeadline and quality metadata whenever the solve
// was interrupted, snapshot merit non-increasing in k (later deadlines
// never return worse iterates), and — once the trip count exceeds the
// solve's natural length — a clean bit-identical solve with no metadata.
func TestAnytimeDeadlineEveryIteration(t *testing.T) {
	p := anytimeTestProblem(t)
	ses := anytimeSession(t, p)

	ref, err := ses.SolveCtx(context.Background(), nil)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if ref.Anytime != nil {
		t.Fatalf("uninterrupted solve carries Anytime metadata: %+v", ref.Anytime)
	}
	// The session's result storage is reused two solves later.
	refX := append(linalg.Vector(nil), ref.X...)
	n := ref.Iterations
	if n < 5 {
		t.Fatalf("reference solve took only %d iterations; problem too easy to exercise the deadline", n)
	}

	prevMerit := math.Inf(1)
	for k := 0; k <= n+1; k++ {
		res, err := ses.SolveCtx(newTripCtx(k), nil)
		if k > n {
			// The solve converges after n polls; trip counts past that
			// never fire, so the result must be the untouched normal path.
			if err != nil {
				t.Fatalf("trip=%d: unexpected error %v", k, err)
			}
			for i := range res.X {
				if res.X[i] != refX[i] {
					t.Fatalf("trip=%d: X[%d]=%v differs from uninterrupted %v", k, i, res.X[i], refX[i])
				}
			}
			if res.Anytime != nil {
				t.Fatalf("trip=%d: clean solve carries Anytime metadata", k)
			}
			continue
		}
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("trip=%d: err=%v, want ErrDeadline", k, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("trip=%d: err=%v does not wrap the context error", k, err)
		}
		if res == nil || res.Anytime == nil {
			t.Fatalf("trip=%d: deadline return without result/metadata (res=%v)", k, res)
		}
		if res.Anytime.Iterations > k {
			t.Errorf("trip=%d: snapshot claims %d iterations, only %d completed", k, res.Anytime.Iterations, k)
		}
		if len(res.X) != p.NumVars() || len(res.IneqDuals) != p.NumIneq() {
			t.Fatalf("trip=%d: result has wrong shape", k)
		}
		for _, v := range res.IneqDuals {
			if v < 0 {
				t.Errorf("trip=%d: negative inequality dual %v", k, v)
			}
		}
		if res.Anytime.Merit > prevMerit {
			t.Errorf("trip=%d: merit %v worse than trip=%d's %v — best-so-far violated",
				k, res.Anytime.Merit, k-1, prevMerit)
		}
		prevMerit = res.Anytime.Merit
	}
}

// TestAnytimeOffKeepsNilResultContract verifies the default path is
// untouched: without anytime an expired context returns (nil, ctx error)
// exactly as before, and a session with anytime on but no deadline solves
// bitwise identically to the plain solver.
func TestAnytimeOffKeepsNilResultContract(t *testing.T) {
	p := anytimeTestProblem(t)

	ses, err := NewSession(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ses.SolveCtx(newTripCtx(3), nil)
	if res != nil || !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrDeadline) {
		t.Fatalf("anytime off: res=%v err=%v, want nil result with bare context error", res, err)
	}

	plain, err := ses.SolveCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	any, err := anytimeSession(t, p).SolveCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if any.Iterations != plain.Iterations || any.Objective != plain.Objective {
		t.Fatalf("anytime-on clean solve diverged: %d iters obj %v vs %d iters obj %v",
			any.Iterations, any.Objective, plain.Iterations, plain.Objective)
	}
	for i := range plain.X {
		if any.X[i] != plain.X[i] {
			t.Fatalf("X[%d] differs bitwise: %v vs %v", i, any.X[i], plain.X[i])
		}
	}
}

// TestAnytimeWarmStartSnapshot checks the iteration-zero snapshot: a
// deadline that fires before any iteration completes still returns the
// starting point — with a warm start, that is the caller's previous plan.
func TestAnytimeWarmStartSnapshot(t *testing.T) {
	p := anytimeTestProblem(t)
	ses := anytimeSession(t, p)
	ref, err := ses.SolveCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := &WarmStart{X: ref.X, Z: ref.IneqDuals}
	res, err := ses.SolveCtx(newTripCtx(0), warm)
	if !errors.Is(err, ErrDeadline) || res == nil {
		t.Fatalf("res=%v err=%v, want initial-point snapshot with ErrDeadline", res, err)
	}
	if res.Anytime.Iterations != 0 {
		t.Fatalf("snapshot iterations = %d, want 0", res.Anytime.Iterations)
	}
	for i := range res.X {
		if res.X[i] != ref.X[i] {
			t.Fatalf("X[%d] = %v, want warm-start value %v", i, res.X[i], ref.X[i])
		}
	}
}
