// Package workpool spreads one parallel GF(2^8) call (codeplan execution)
// over several cores. Each Parallel call starts its own helpers and waits
// for them, so no goroutine outlives it; Width()-1 process-wide slots cap
// the helpers of all calls in flight.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"carousel/internal/obs"
)

// Width returns GOMAXPROCS at the first call of Width or Parallel, fixed
// for the life of the process. Codecs stripe their plans this wide.
func Width() int { return width() }

// slots holds one token per running helper; width sizes it at first use
// and sets workpool_workers, which reads 0 until then.
var (
	mWorkers = obs.Default().Gauge("workpool_workers")
	slots    chan struct{}
	width    = sync.OnceValue(func() int {
		w := max(runtime.GOMAXPROCS(0), 1)
		slots = make(chan struct{}, w-1)
		mWorkers.Set(int64(w))
		return w
	})
)

// run is one Parallel call's task cursor. runPool recycles it with help
// bound, so `go r.help()` allocates nothing.
type run struct {
	next atomic.Int64
	n    int64
	fn   func(int)
	wg   sync.WaitGroup
	help func()
}

var runPool = sync.Pool{New: func() any {
	r := new(run)
	r.help = r.helper
	return r
}}

// drain executes tasks until the cursor passes n.
func (r *run) drain() {
	for i := r.next.Add(1); i <= r.n; i = r.next.Add(1) {
		r.fn(int(i - 1))
	}
}

// helper frees its slot before wg.Done: a returned call holds none.
func (r *run) helper() {
	r.drain()
	<-slots
	r.wg.Done()
}

// Parallel runs fn(0), ..., fn(n-1) on the caller and one helper per slot
// it takes, at most workers-1, and returns once every task has finished.
// Taking a slot never blocks, so a nested call runs on with what it got
// and cannot deadlock. fn must be safe to call concurrently on distinct i.
func Parallel(n, workers int, fn func(int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	width() // sizes slots
	r := runPool.Get().(*run)
	r.next.Store(0)
	r.n, r.fn = int64(n), fn
	for h := 1; h < workers; h++ {
		select {
		case slots <- struct{}{}:
			r.wg.Add(1)
			go r.help()
		default:
			h = workers // every slot is taken
		}
	}
	r.drain()
	r.wg.Wait()
	r.fn = nil
	runPool.Put(r)
}
