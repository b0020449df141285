package workpool

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelRunsEveryTaskOnce covers serial fallback, normal fan-out,
// and workers > n.
func TestParallelRunsEveryTaskOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 1}, {7, 2}, {64, 4}, {64, 100}, {1000, 8},
	} {
		hits := make([]int32, tc.n)
		Parallel(tc.n, tc.workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d workers=%d: task %d ran %d times", tc.n, tc.workers, i, h)
			}
		}
	}
}

// TestParallelConcurrentCallers hammers the shared pool from many
// goroutines at once; run under -race this is the pool's safety test.
func TestParallelConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				Parallel(37, 4, func(i int) { total.Add(int64(i)) })
			}
		}()
	}
	wg.Wait()
	want := int64(16 * 20 * (37 * 36 / 2))
	if total.Load() != want {
		t.Fatalf("sum = %d, want %d", total.Load(), want)
	}
}

// TestParallelNested makes sure a task may itself call Parallel without
// deadlocking (the saturated-pool path falls back to the caller).
func TestParallelNested(t *testing.T) {
	var total atomic.Int64
	Parallel(8, 4, func(int) {
		Parallel(8, 4, func(int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("nested tasks ran %d times, want 64", total.Load())
	}
}

// TestParallelNestedSaturated keeps every slot taken while nested calls
// keep arriving, so most calls find no free slot and must run their tasks
// on their own goroutine instead of waiting for one their caller holds.
// Completion is the assertion: a call that blocked on a slot would hang
// this test.
func TestParallelNestedSaturated(t *testing.T) {
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				Parallel(6, 8, func(int) {
					Parallel(6, 8, func(int) {
						Parallel(4, 8, func(int) { total.Add(1) })
					})
				})
			}
		}()
	}
	wg.Wait()
	if want := int64(8 * 10 * 6 * 6 * 4); total.Load() != want {
		t.Fatalf("tasks ran %d times, want %d", total.Load(), want)
	}
}

// TestParallelBoundsExecutors counts the tasks running at once, which is
// the number of executors busy. C concurrent callers of Parallel(n, 8) use
// at most C + Width()-1 executors, since each helper holds one of the
// Width()-1 slots. A lone caller's tasks wait for one another, so it must
// reach min(8, Width()) executors: one helper per free slot.
func TestParallelBoundsExecutors(t *testing.T) {
	var active, peak atomic.Int64
	enter := func() {
		a := active.Add(1)
		for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
		}
	}
	const callers = 4
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				Parallel(32, 8, func(int) {
					enter()
					runtime.Gosched()
					active.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	if bound := int64(callers + Width() - 1); peak.Load() > bound {
		t.Fatalf("%d callers ran %d executors at once, want at most %d", callers, peak.Load(), bound)
	}

	if Width() < 2 {
		t.Log("Width() is 1: a lone caller has no helper to reach")
		return
	}
	want := int64(min(8, Width()))
	active.Store(0)
	peak.Store(0)
	deadline := time.Now().Add(5 * time.Second)
	Parallel(int(want), 8, func(int) {
		enter()
		for peak.Load() < want && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	})
	if peak.Load() != want {
		t.Fatalf("a lone caller ran %d executors at once, want %d", peak.Load(), want)
	}
}

// TestParallelLeavesNoGoroutine checks that a call's helpers exit with it:
// once Parallel returns, the goroutine count falls back to where it was
// before the call and no goroutine is left running this package's code.
func TestParallelLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var sink atomic.Int64
	Parallel(64, 8, func(i int) {
		runtime.Gosched()
		sink.Add(int64(i))
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, inPkg := runtime.NumGoroutine(), goroutinesIn("/internal/workpool/workpool.go:")
		if n <= base && inPkg == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Parallel returned: %d goroutines (%d before), %d in workpool.go", n, base, inPkg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelAllocatesNothing pins a warm call that starts a helper at 0
// allocations: the run descriptor comes from runPool with its help func
// bound, and the helper's goroutine from the runtime's free list.
// codeplan's TestRunAllocatesNothing does not reach Parallel: its units
// are under minParallelBytes, so its RunParallel runs serially.
func TestParallelAllocatesNothing(t *testing.T) {
	if Width() < 2 {
		t.Skip("Width() is 1: Parallel starts no helper")
	}
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	if a := testing.AllocsPerRun(100, func() { Parallel(64, 8, fn) }); a != 0 {
		t.Fatalf("a warm Parallel allocates %v objects per call, want 0", a)
	}
}

// goroutinesIn counts the goroutines with a frame in the source file whose
// path ends in suffix.
func goroutinesIn(suffix string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, suffix) {
			n++
		}
	}
	return n
}

// BenchmarkParallelNested measures submission overhead under nested
// saturation: every iteration is an outer run whose tasks each start an
// inner run, so most calls find every slot taken. Width is fixed at the
// first call, so a -cpu list measures only its first value: run one
// process per value, as EXPERIMENTS.md's pool-scaling recipe does.
func BenchmarkParallelNested(b *testing.B) {
	var sink atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Parallel(4, 4, func(int) {
				Parallel(4, 4, func(int) { sink.Add(1) })
			})
		}
	})
}

// BenchmarkParallelSubmit measures the bare submission round-trip (tiny
// tasks, so starting and joining helpers dominates). One process per -cpu
// value, as for BenchmarkParallelNested.
func BenchmarkParallelSubmit(b *testing.B) {
	var sink atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Parallel(8, 4, func(i int) { sink.Add(int64(i)) })
		}
	})
}
