package workpool

import (
	"sync"
	"sync/atomic"
	"testing"
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

// TestParallelNestedSaturated floods the pool so every worker is draining
// while nested calls keep arriving; with mailbox submission every offer
// must either land on an idle worker or bounce back to the caller, never
// to the caller's own worker. Completion is the assertion — a self-offer
// would hang this test.
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

// BenchmarkParallelNested measures submission overhead under nested
// saturation: every iteration is an outer run whose tasks each start an
// inner run, so offers constantly hit busy workers. Run with
// -cpu 1,2,4,8 to see how submission scales with GOMAXPROCS.
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
// tasks, so pool handoff dominates). Run with -cpu 1,2,4,8.
func BenchmarkParallelSubmit(b *testing.B) {
	var sink atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Parallel(8, 4, func(i int) { sink.Add(int64(i)) })
		}
	})
}
