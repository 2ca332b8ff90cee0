package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := clampWorkers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("clampWorkers(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := clampWorkers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("clampWorkers(-3, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := clampWorkers(8, 3); got != 3 {
		t.Errorf("clampWorkers(8, 3) = %d, want 3", got)
	}
	if got := clampWorkers(2, 100); got != 2 {
		t.Errorf("clampWorkers(2, 100) = %d, want 2", got)
	}
	if got := clampWorkers(5, 0); got != 1 {
		t.Errorf("clampWorkers(5, 0) = %d, want 1", got)
	}
}

func TestForEachRunsEveryIndexAtAnyWorkerCount(t *testing.T) {
	const n = 57
	for _, workers := range []int{0, 1, 2, 7, 64} {
		out := make([]int, n)
		err := ForEach(n, workers, func(i int) error {
			out[i] = i*i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i+1 {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i+1)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		err := ForEach(20, workers, func(i int) error {
			calls.Add(1)
			if i == 3 || i == 11 {
				return fmt.Errorf("item %d: %w", i, sentinel)
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if got := err.Error(); got != "item 3: boom" {
			t.Errorf("workers=%d: err = %q, want lowest-index failure", workers, got)
		}
		// Every index still ran despite the failures.
		if calls.Load() != 20 {
			t.Errorf("workers=%d: %d calls, want 20", workers, calls.Load())
		}
	}
}

func TestForEachEdgeCases(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if err := ForEach(-1, 4, nil); err != nil {
		t.Errorf("n<0: %v", err)
	}
	if err := ForEach(3, 4, nil); err == nil {
		t.Error("nil fn with n>0: no error")
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := ForEachCtx(ctx, 10, workers, func(i int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if calls.Load() != 0 {
			t.Errorf("workers=%d: %d items dispatched after cancellation", workers, calls.Load())
		}
	}
}

func TestForEachCtxStopsDispatch(t *testing.T) {
	// Single worker makes dispatch order deterministic: item 2 cancels, so
	// items 3..9 must be skipped and their slots report the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	err := ForEachCtx(ctx, 10, 1, func(i int) error {
		calls.Add(1)
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 3 {
		t.Errorf("%d items ran, want 3 (0..2 then stop)", calls.Load())
	}
}

func TestForEachCtxItemErrorBeatsCancellation(t *testing.T) {
	// A genuine failure at a lower index than any cancelled slot must win
	// the lowest-index rule over the cancellation itself.
	sentinel := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEachCtx(ctx, 10, 1, func(i int) error {
		if i == 1 {
			cancel()
			return fmt.Errorf("item %d: %w", i, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the item failure, not the cancellation", err)
	}
}
