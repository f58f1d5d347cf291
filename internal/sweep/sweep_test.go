package sweep

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// Every job must run exactly once and land in its own slot, for any worker
// count.
func TestRunExecutesEveryJobOnce(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 3, 4, 7, 16, 0} {
		var calls [n]int32
		out, rep := Run(n, workers, func(i int) int {
			atomic.AddInt32(&calls[i], 1)
			return i * i
		})
		for i := 0; i < n; i++ {
			if calls[i] != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, calls[i])
			}
			if out[i] != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], i*i)
			}
		}
		if rep.Jobs != n {
			t.Fatalf("workers=%d: report says %d jobs", workers, rep.Jobs)
		}
	}
}

// Results must be identical across worker counts even when job durations
// are wildly skewed.
func TestRunDeterministicUnderSkew(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(3000)) * time.Microsecond
	}
	job := func(i int) int {
		time.Sleep(delays[i])
		return i * 7
	}
	serial, _ := Run(n, 1, job)
	parallel, rep := Run(n, 8, job)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
	if rep.Workers != 8 {
		t.Fatalf("workers = %d, want 8", rep.Workers)
	}
}

// A grossly skewed load must spread over the pool: with 4 workers and every
// job's cost concentrated in the first quarter of the index space, no single
// worker may be left to run that quarter alone, one job after another.
func TestRunBalancesSkew(t *testing.T) {
	const n = 40
	var running atomic.Int32
	var overlapped atomic.Bool
	job := func(i int) int {
		if i < 10 {
			if running.Add(1) > 1 {
				overlapped.Store(true)
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
		}
		return i
	}
	Run(n, 4, job)
	if !overlapped.Load() {
		t.Fatal("the costly jobs ran one at a time despite three idle workers")
	}
}

func TestRunEdgeCases(t *testing.T) {
	out, rep := Run(0, 4, func(i int) int { return i })
	if len(out) != 0 || rep.Jobs != 0 {
		t.Fatalf("n=0: out=%v rep=%+v", out, rep)
	}
	out, rep = Run(3, 100, func(i int) int { return i })
	if rep.Workers != 3 {
		t.Fatalf("workers not clamped to n: %d", rep.Workers)
	}
	if out[0] != 0 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("bad results: %v", out)
	}
}
