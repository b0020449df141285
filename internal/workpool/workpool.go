// Package workpool provides the shared, bounded worker pool behind every
// parallel GF(2^8) hot path in this repository (codeplan execution, the
// stripe pipeline). The pool holds
// GOMAXPROCS goroutines, started lazily on first use and fixed from then
// on; callers never spawn goroutines of their own, so total fan-out stays
// bounded no matter how many codecs or stripes run concurrently.
//
// The scheduling unit is a run descriptor (recycled through a sync.Pool)
// holding an atomic task cursor: the calling goroutine and up to workers-1
// pool goroutines race down the same index sequence, so work is balanced
// without per-task channel traffic or per-task allocations.
//
// Submission is contention-free: each worker owns a single-slot atomic
// mailbox, and a Parallel call offers its run to idle workers with one
// CompareAndSwap per attempt, starting at a random worker so concurrent
// submitters fan out across distinct cache lines instead of serializing on
// a shared queue lock. Offers never block — when no worker is idle the
// caller simply executes the tasks itself — and a draining worker parks a
// sentinel in its own mailbox, so a nested Parallel call can never hand
// work to the very goroutine that is blocked waiting for it. Together
// these make nested saturation deadlock-free by construction.
package workpool

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"carousel/internal/obs"
)

// worker is one pool goroutine and its single-slot mailbox. slot holds nil
// (idle, accepting offers), a *run (offer pending pickup), or busyMarker
// (draining; offers bounce to the next worker).
type worker struct {
	slot atomic.Pointer[run]
	note chan struct{} // capacity 1: wake-up edge, never blocks senders
}

// busyMarker occupies a worker's mailbox while it drains a run. It keeps
// offer CAS attempts failing — crucially including offers from the nested
// Parallel calls the worker itself makes — without any extra state.
var busyMarker = new(run)

// pool is the set of workers, written once inside startOnce.
var (
	startOnce sync.Once
	pool      []*worker
)

// Width returns the pool's size: GOMAXPROCS at the first call of Width or
// Parallel, fixed for the life of the process. Codecs stripe their plans
// this wide.
func Width() int { return width() }

var width = sync.OnceValue(func() int { return max(runtime.GOMAXPROCS(0), 1) })

// mWorkers is the pool's size: 0 until the pool starts.
var mWorkers = obs.Default().Gauge("workpool_workers")

// start brings the pool up with Width workers.
func start() {
	pool = make([]*worker, Width())
	for i := range pool {
		pool[i] = &worker{note: make(chan struct{}, 1)}
		go pool[i].loop()
	}
	mWorkers.Set(int64(len(pool)))
}

// loop is the worker body: sleep until a note arrives, then swap the
// mailbox for the busy sentinel and drain whatever run was parked there.
// Offers send the note only after a successful CAS into the slot, and the
// slot returns to nil only here, so a pending run is never stranded.
func (w *worker) loop() {
	for range w.note {
		for {
			r := w.slot.Swap(busyMarker)
			if r == nil || r == busyMarker {
				w.slot.CompareAndSwap(busyMarker, nil)
				break
			}
			r.drain()
			r.wg.Done()
		}
	}
}

// run is one Parallel invocation: a task cursor shared by the caller and
// the helper workers. Descriptors are recycled via runPool.
type run struct {
	next atomic.Int64
	n    int64
	fn   func(int)
	wg   sync.WaitGroup
}

var runPool = sync.Pool{New: func() any { return new(run) }}

// drain executes tasks until the cursor passes n.
func (r *run) drain() {
	for {
		i := r.next.Add(1) - 1
		if i >= r.n {
			return
		}
		r.fn(int(i))
	}
}

// Parallel executes fn(0), ..., fn(n-1) using at most workers concurrent
// executors: the calling goroutine plus up to workers-1 goroutines of the
// shared pool. It returns when every task has finished. fn must be safe
// for concurrent invocation with distinct arguments. workers <= 1 (or
// n <= 1) runs everything on the caller.
func Parallel(n, workers int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	startOnce.Do(start)
	r := runPool.Get().(*run)
	r.next.Store(0)
	r.n = int64(n)
	r.fn = fn

	// Offer the run to up to workers-1 idle workers, one CAS each,
	// starting at a random index so concurrent submitters spread across
	// the pool instead of all hammering worker 0's cache line.
	want := workers - 1
	placed := 0
	off := int(rand.Uint32N(uint32(len(pool))))
	for i := 0; i < len(pool) && placed < want; i++ {
		w := pool[(off+i)%len(pool)]
		r.wg.Add(1)
		if w.slot.CompareAndSwap(nil, r) {
			placed++
			select {
			case w.note <- struct{}{}:
			default:
			}
		} else {
			r.wg.Done()
		}
	}
	// The caller drains too, so a run that found every worker busy still
	// completes.
	r.drain()
	r.wg.Wait()
	r.fn = nil
	runPool.Put(r)
}
