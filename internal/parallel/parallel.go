// Package parallel provides the bounded, deterministic fan-out primitive
// used by the embarrassingly parallel outer loops of the simulator and the
// competition game: per-SP best-response solves, horizon sweeps, and
// parameter sweeps.
//
// Determinism contract: callers seed any randomness per item (never from a
// shared RNG consumed inside workers) and workers write results only into
// their own item's slot. Completion order then never changes observable
// output, so runs are bit-identical at any worker count — including 1.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// clampWorkers normalizes a worker-count setting: values ≤ 0 mean
// runtime.GOMAXPROCS(0), and the count never exceeds n items.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(0), …, fn(n−1) on at most workers goroutines (≤ 0 means
// GOMAXPROCS). Every index runs to completion regardless of other items'
// errors, no goroutine outlives the call, and the returned error is the
// lowest-index failure — the same error a sequential loop that kept going
// would report first. Results must be written into index-addressed slots.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done, no
// new item is dispatched (items already running finish normally — workers
// are never killed mid-item) and every undispatched item's slot reports
// ctx.Err(). The lowest-index rule still picks the returned error, so a
// genuine item failure that happened before the cancellation wins over the
// cancellation itself.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if fn == nil {
		return fmt.Errorf("parallel: nil function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		// Inline fast path: no goroutines, same semantics.
		var first error
		for i := 0; i < n; i++ {
			var err error
			if err = ctx.Err(); err == nil {
				err = fn(i)
			}
			if err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return forEachPool(ctx, n, workers, fn)
}

// forEachPool is ForEachCtx's pool of workers goroutines. It is split out
// so that the inline path's arguments, which the goroutines would capture,
// stay off the heap: a one-worker call allocates nothing.
func forEachPool(ctx context.Context, n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
