package qp

import (
	"context"
	"errors"
	"testing"
)

func TestSolveCtxCancelled(t *testing.T) {
	// The context is polled once per interior-point iteration.
	p := denseQP(t, [][]float64{{1, 0}, {0, 1}}, vectorOf(-1, -2),
		[][]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}, vectorOf(0.5, 0.5, 0, 0))
	ses, err := NewSession(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ses.SolveCtx(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same problem with a live context must solve cleanly.
	res, err := ses.SolveCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] > 0.5+1e-8 || res.X[1] > 0.5+1e-8 {
		t.Errorf("x = %v violates the box", res.X)
	}
}
