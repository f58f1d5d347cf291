// Package sweep runs independent benchmark jobs across a worker pool and
// merges their results in deterministic order.
//
// Every grid point of a benchmark sweep (system × window × payload size ×
// node count × seed) runs in its own simnet.Sim seeded independently, so
// grid points share no state and can execute on any OS thread in any order.
// The orchestrator exploits that: a GOMAXPROCS-sized pool of workers takes
// job indices from one shared counter, so a worker that finishes early simply
// takes the next job — the load balances by construction — and results are
// written into a slot per job, so the merged output is a pure function of the
// job list — byte-stable regardless of scheduling.
//
// This package is the one deliberate exception to the repository's
// determinism contract (see ARCHITECTURE.md): it uses real goroutines and
// the wall clock, because it is the host-side harness *around* the
// simulations, never part of one. Nothing here may leak into simulated
// results except through the Report, which is explicitly host-side metadata
// (wall-clock duration) and must never be folded into byte-stable output.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Report describes how a Run executed on the host. All fields are
// host-side metadata: the wall-clock time varies run to run and machine to
// machine, and must not be mixed into deterministic output.
type Report struct {
	// Jobs is the number of jobs executed.
	Jobs int
	// Workers is the number of workers actually used.
	Workers int
	// Wall is the wall-clock duration of the whole Run call.
	Wall time.Duration
}

// Run executes fn(i) for every i in [0, n) on a pool of workers and returns
// the results in index order. workers <= 0 selects GOMAXPROCS; workers == 1
// runs everything on the calling goroutine in index order, with no
// goroutines at all — the serial reference the parallel path is tested
// against.
//
// fn must be safe to call from multiple goroutines on distinct i; in this
// repository that holds because every job builds its own simnet.Sim.
// Because results[i] depends only on fn(i), the returned slice is identical
// for every workers value.
func Run[T any](n, workers int, fn func(i int) T) ([]T, Report) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	rep := Report{Jobs: n, Workers: workers}
	start := time.Now()
	if workers <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		rep.Wall = time.Since(start)
		return out, rep
	}

	var next atomic.Int64 // the next job index nobody has taken
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	return out, rep
}
