package core

import (
	"context"
	"math"
	"testing"
	"time"

	"dspp/internal/qp"
)

// TestResolveCapacitiesMatchesFullSolve pins the capacity fast path's
// accuracy: after a full solve, each ResolveCapacitiesCtx under drifted
// capacities must agree with a cold one-shot solve of a twin instance at
// the same capacities to (far better than) 1e-6 relative — with the
// checkpointed (RankK) session option on and off, since the perturbation
// algebra is the same and only the factorization update strategy differs.
func TestResolveCapacitiesMatchesFullSolve(t *testing.T) {
	const l, v, w = 3, 5, 4
	for _, rankK := range []bool{true, false} {
		instSes := sessionTestInstance(t, l, v)
		instOne := sessionTestInstance(t, l, v)
		ses, err := instSes.NewHorizonSessionOpts(w, qp.DefaultOptions(), qp.SessionOptions{RankK: rankK})
		if err != nil {
			t.Fatal(err)
		}
		input := sessionTestInput(instSes, l, v, w)
		inputOne := sessionTestInput(instOne, l, v, w)
		if _, err := ses.Solve(input); err != nil {
			t.Fatal(err)
		}
		if !ses.CanResolveCapacities() {
			t.Fatal("standing solve not armed after a successful SolveCtx")
		}
		caps := make([]float64, l)
		for i := range caps {
			caps[i] = 40000 + 5000*float64(i)
		}
		for round := 1; round <= 6; round++ {
			// Alternate shrinks and grows on one DC per round — the shape a
			// quota transfer produces, and few enough perturbed rows for the
			// rank-k work gate to accept the update on this small problem.
			i := round % l
			caps[i] = (40000 + 5000*float64(i)) * (1 + 0.02*float64(1-2*(round%2)))
			if err := instSes.SetCapacities(caps); err != nil {
				t.Fatal(err)
			}
			if err := instOne.SetCapacities(caps); err != nil {
				t.Fatal(err)
			}
			fast, err := ses.ResolveCapacitiesCtx(context.Background())
			if err != nil {
				t.Fatalf("rankK=%t round %d: %v", rankK, round, err)
			}
			full, err := instOne.SolveHorizonCtx(nil, inputOne, qp.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			gap := math.Abs(fast.Objective-full.Objective) / math.Abs(full.Objective)
			if gap > 1e-6 {
				t.Fatalf("rankK=%t round %d: fast-path objective gap %.2e > 1e-6", rankK, round, gap)
			}
			for ti := range fast.X {
				for i := range fast.X[ti] {
					var tot float64
					for _, x := range fast.X[ti][i] {
						tot += x
					}
					if tot > caps[i]*(1+1e-9) {
						t.Fatalf("rankK=%t round %d: step %d DC %d over capacity: %g > %g",
							rankK, round, ti, i, tot, caps[i])
					}
				}
			}
			if !ses.CanResolveCapacities() {
				t.Fatalf("rankK=%t round %d: successful resolve disarmed the standing solve", rankK, round)
			}
		}
		if rankK {
			// Every capacitated DC here serves several locations, so its
			// capacity rows are linking rows: a query that iterates keeps
			// the band factor and refactors only the Schur complement,
			// which the session counts as a reuse.
			if st := ses.Stats(); st.Reused == 0 {
				t.Fatalf("checkpointed session never kept its band factor (stats %+v)", st)
			}
		}
	}
}

// TestResolveCapacitiesGate pins the fast path's arming contract: no
// standing solve means ErrBadInput, a failed resolve disarms, and a
// fresh full solve re-arms.
func TestResolveCapacitiesGate(t *testing.T) {
	const l, v, w = 2, 3, 3
	inst := sessionTestInstance(t, l, v)
	ses, err := inst.NewHorizonSessionOpts(w, qp.DefaultOptions(), qp.SessionOptions{RankK: true})
	if err != nil {
		t.Fatal(err)
	}
	if ses.CanResolveCapacities() {
		t.Fatal("fresh session claims a standing solve")
	}
	if _, err := ses.ResolveCapacitiesCtx(context.Background()); err == nil {
		t.Fatal("resolve without a standing solve must fail")
	}
	input := sessionTestInput(inst, l, v, w)
	if _, err := ses.Solve(input); err != nil {
		t.Fatal(err)
	}
	caps := []float64{41000, 44000}
	if err := inst.SetCapacities(caps); err != nil {
		t.Fatal(err)
	}
	// An already-expired deadline kills the continuation: the standing
	// solve must be disarmed so the caller falls back to a full solve.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := ses.ResolveCapacitiesCtx(ctx); err == nil {
		t.Fatal("resolve under an expired deadline must fail")
	}
	if ses.CanResolveCapacities() {
		t.Fatal("failed resolve left the standing solve armed")
	}
	// The fallback path: a full solve at the current capacities re-arms.
	if _, err := ses.Solve(input); err != nil {
		t.Fatal(err)
	}
	if !ses.CanResolveCapacities() {
		t.Fatal("full solve did not re-arm the fast path")
	}
	if _, err := ses.ResolveCapacitiesCtx(context.Background()); err != nil {
		t.Fatalf("no-op resolve after re-arm: %v", err)
	}
}
