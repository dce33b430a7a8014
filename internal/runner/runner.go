// Package runner is the run-level parallel execution layer of the
// experiment harness. Every sweep point of the paper's evaluation is an
// independent, deterministic, single-threaded simulation (fresh
// sim.Engine + core.System per run), so runs can execute concurrently
// without touching the event engine's determinism. The package is one
// function, Map, the harness's conversion of a serial sweep loop:
//
//	for i := range points { y[i] = run(i) }
//
// becomes
//
//	y, err := runner.Map(parallel, len(points), run)
//
// Determinism contract: simulations are single-threaded *per run*; runs
// execute concurrently; each result lands at its own index, so figure
// rows come out in index order no matter which worker finished first,
// and one worker reproduces the serial loop bit for bit. A task must
// not share mutable state with other tasks — each builds its own
// engine, system, accessors, and RNGs from the experiment seed.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(0..n-1) on at most workers goroutines (workers <= 0 means
// GOMAXPROCS) and returns the results in index order. Workers take
// indices in ascending order from one shared counter, and once a task
// fails no new index starts. The returned error is the lowest-index
// failure: every index below a started one has started too, so that
// task always runs. One worker therefore runs the tasks in index order
// and stops at the first error, as a serial loop does. A task may call
// Map itself; each call runs its own goroutines.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if out[i], errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
