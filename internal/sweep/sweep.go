// Package sweep is the run-dispatch layer under the experiment sweeps: a
// bounded worker pool that executes independent, index-addressed tasks
// concurrently. The paper's evaluation is a 46-benchmark × multi-mode
// sweep of isolated simulations — embarrassingly parallel work — and this
// package is where that parallelism lives, so the experiments layer can
// keep deterministic, registry-ordered result assembly: every task writes
// only into its own slot, and Each returns once all slots are filled.
package sweep

import (
	"context"
	"runtime"
	"sync"
)

// Jobs resolves a worker count: n if positive, otherwise GOMAXPROCS.
func Jobs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Each runs task(0..n-1) on a pool of jobs workers (jobs <= 0 means
// GOMAXPROCS; jobs == 1 degenerates to a plain serial loop) and returns
// when every dispatched task has completed. Tasks must be independent: the
// intended pattern is for task i to write only into the i-th slot of a
// caller-preallocated result slice, which keeps the assembled output
// identical for every worker count. Each does not recover panics — the
// harness below each sweep task already converts aborts into structured
// errors, and a panic escaping that layer is a programming error that
// should crash loudly rather than vanish into a worker.
//
// Canceling ctx stops dispatch: tasks not yet handed to a worker never
// run, while in-flight tasks drain to completion before Each returns —
// the graceful-shutdown contract the checkpointing sweep needs (every
// started run finishes and is stored; nothing is half-done). A nil ctx
// means never canceled.
func Each(ctx context.Context, jobs, n int, task func(i int)) {
	if n <= 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	if jobs == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			task(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				task(i)
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-done:
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
}
