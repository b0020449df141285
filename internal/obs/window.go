package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// WindowHistogram is a sliding-window view over the same exponential
// buckets as Histogram: a ring of sub-histograms, each covering one
// resolution slice of the window, stamped with the epoch (wall time /
// resolution) it was last used for. Observing rotates the current slice
// lazily — there is no background goroutine — and snapshotting sums only
// the slices whose epoch still falls inside the window. That makes p99
// over "the last minute" one lock-free pass over a fixed array, at the
// cost of the window edge being quantized to one slice.
//
// All state is atomic; rotation races lose at most the handful of
// observations that land in a slice while another goroutine is resetting
// it, which is noise at monitoring resolution.
type WindowHistogram struct {
	resolution int64 // nanoseconds per slice
	nowNS      func() int64
	slices     []windowSlice
}

type windowSlice struct {
	epoch atomic.Int64
	hist  Histogram
}

// reset zeroes a histogram with atomic stores (safe under concurrent
// observers; see WindowHistogram).
func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// DefaultWindow is the window length Registry.Window uses: long enough to
// smooth a burst, short enough that a straggler shows up in the p99 gauge
// within seconds.
const DefaultWindow = time.Minute

// defaultWindowSlices quantizes DefaultWindow into 5s slices.
const defaultWindowSlices = 12

// NewWindowHistogram returns a sliding-window histogram covering window,
// quantized into slices sub-ranges (minimum 2). The zero clock is
// time.Now.
func NewWindowHistogram(window time.Duration, slices int) *WindowHistogram {
	if slices < 2 {
		slices = 2
	}
	res := int64(window) / int64(slices)
	if res < int64(time.Millisecond) {
		res = int64(time.Millisecond)
	}
	w := &WindowHistogram{
		resolution: res,
		nowNS:      func() int64 { return time.Now().UnixNano() },
		slices:     make([]windowSlice, slices),
	}
	// Stamp unused slices with an impossible epoch so a fresh window at
	// epoch 0 does not count them.
	for i := range w.slices {
		w.slices[i].epoch.Store(math.MinInt64)
	}
	return w
}

// setClock injects a nanosecond clock (tests only; not safe to change
// while observers are running).
func (w *WindowHistogram) setClock(nowNS func() int64) { w.nowNS = nowNS }

// slice returns the ring slice for the current epoch, rotating (resetting)
// it if it still holds an older epoch's data.
func (w *WindowHistogram) slice() *windowSlice {
	e := w.nowNS() / w.resolution
	s := &w.slices[int(e%int64(len(w.slices)))]
	if old := s.epoch.Load(); old != e {
		if s.epoch.CompareAndSwap(old, e) {
			s.hist.reset()
		}
	}
	return s
}

// Observe records one value into the current slice.
func (w *WindowHistogram) Observe(v int64) { w.slice().hist.Observe(v) }

// ObserveDuration records a duration in nanoseconds.
func (w *WindowHistogram) ObserveDuration(d time.Duration) { w.Observe(int64(d)) }

// ObserveSince records the nanoseconds elapsed since t0.
func (w *WindowHistogram) ObserveSince(t0 time.Time) {
	w.Observe(w.nowNS() - t0.UnixNano())
}

// Snapshot sums the slices still inside the window into one
// HistogramSnapshot, so Quantile and Mean work unchanged on windowed data.
func (w *WindowHistogram) Snapshot() HistogramSnapshot {
	e := w.nowNS() / w.resolution
	min := e - int64(len(w.slices)) + 1
	var s HistogramSnapshot
	for i := range w.slices {
		sl := &w.slices[i]
		if ep := sl.epoch.Load(); ep >= min && ep <= e {
			s.merge(sl.hist.snapshot())
		}
	}
	return s
}
