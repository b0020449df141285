// Package obs is the repository's pure-stdlib observability layer:
// allocation-free counters, gauges, and exponential-bucket histograms in a
// process-wide registry, plus lightweight span tracing (span.go), a
// Prometheus-style /metrics exposition with /debug/vars and /debug/pprof
// (http.go), and a slog handler that stamps records with the trace and
// span IDs carried in the context (log.go).
//
// Hot paths pay one atomic add per event: metric handles are interned in
// the registry once (typically in a package var or at client construction)
// and then mutated lock-free. Histograms bucket by the bit length of the
// observed value, so recording a latency is an atomic add into a fixed
// array — no allocation, no lock, no float math.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; they are not checked on
// the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucket 0 holds observations <= 0
// and bucket i (1..64) holds values whose bit length is i, i.e. the range
// [2^(i-1), 2^i - 1]. Indexing by bits.Len64 needs no clamping and no
// configuration; 64 buckets span 1ns..~584y when observing nanoseconds.
const histBuckets = 65

// Histogram is an exponential-bucket histogram over int64 observations
// (typically nanoseconds or bytes). Observation is one atomic add into a
// fixed array plus two for count and sum.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpper returns the inclusive upper bound of bucket i (0 for bucket
// 0, 2^i - 1 otherwise; buckets 63+ saturate at the int64 maximum).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [histBuckets]int64
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the geometric midpoint
// of the bucket holding the nearest-rank observation, ceil(q*Count): the
// rank rounds up, so a lone straggler among a handful of samples shows in
// the tail quantiles instead of vanishing below them. Exponential buckets
// make this accurate to within a factor of two, which is what capacity
// planning and regression greps need.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for i, c := range s.Buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo := int64(1) << uint(i-1)
			return lo + (BucketUpper(i)-lo)/2
		}
	}
	return BucketUpper(histBuckets - 1)
}

// merge adds another snapshot into this one (bucket bounds are fixed, so
// summation is exact).
func (s *HistogramSnapshot) merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Registry holds named metrics. Lookup interns by full name (family plus
// label pairs); the returned handles are stable for the registry's life,
// so hot paths cache them and never touch the registry again.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	histograms map[string]*Histogram
	windows    map[string]*WindowHistogram
	slos       []*SLO
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		histograms: make(map[string]*Histogram),
		windows:    make(map[string]*WindowHistogram),
	}
}

// defaultRegistry is the process-wide registry every package-level metric
// lives in; the /metrics endpoint and carouselctl stats read it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// FullName builds the interned metric key: the family name plus label
// pairs rendered in the given order, e.g.
// FullName("rpcs_total", "op", "get") == `rpcs_total{op="get"}`.
// Label values are escaped for quotes and backslashes.
func FullName(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q has odd label list %q", name, labels))
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `"\`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Family returns the metric family of a full name (the part before the
// label braces).
func Family(full string) string {
	if i := strings.IndexByte(full, '{'); i >= 0 {
		return full[:i]
	}
	return full
}

// intern returns m[full], creating it with mk on first use: a read-locked
// lookup on the fast path, a double-checked insert under the write lock
// otherwise. Every instrument kind interns through here.
func intern[T any](r *Registry, m map[string]*T, full string, mk func() *T) *T {
	r.mu.RLock()
	v, ok := m[full]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[full]; ok {
		return v
	}
	v = mk()
	m[full] = v
	return v
}

// Counter returns (creating on first use) the counter with the given name
// and label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return intern(r, r.counters, FullName(name, labels...), func() *Counter { return new(Counter) })
}

// Gauge returns (creating on first use) the gauge with the given name and
// label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return intern(r, r.gauges, FullName(name, labels...), func() *Gauge { return new(Gauge) })
}

// GaugeFunc registers a gauge whose value is computed at snapshot time —
// for quantities the source already tracks, like a channel's queue depth.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...string) {
	full := FullName(name, labels...)
	r.mu.Lock()
	r.gaugeFuncs[full] = fn
	r.mu.Unlock()
}

// Histogram returns (creating on first use) the histogram with the given
// name and label pairs.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return intern(r, r.histograms, FullName(name, labels...), func() *Histogram { return new(Histogram) })
}

// Window returns (creating on first use) the sliding-window histogram
// with the given name and label pairs, covering DefaultWindow. At
// snapshot time each window exports `<name>_p50`, `<name>_p99`, and
// `<name>_p999` gauges (labels preserved), which is how tail latency
// reaches /metrics without whole-run dilution.
func (r *Registry) Window(name string, labels ...string) *WindowHistogram {
	return intern(r, r.windows, FullName(name, labels...), func() *WindowHistogram {
		return NewWindowHistogram(DefaultWindow, defaultWindowSlices)
	})
}

// Snapshot is a deterministic point-in-time copy of a registry (or of a
// scraped /metrics page): plain maps from full metric name to value.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// NewSnapshot returns an empty snapshot (the identity for Merge).
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
}

// Snapshot captures every metric in the registry. Gauge functions are
// evaluated here, outside any registry lock ordering concern a hot path
// could have.
func (r *Registry) Snapshot() *Snapshot {
	s := NewSnapshot()
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		funcs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	windows := make(map[string]*WindowHistogram, len(r.windows))
	for k, v := range r.windows {
		windows[k] = v
	}
	r.mu.RUnlock()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	for k, w := range windows {
		ws := w.Snapshot()
		s.Gauges[withSuffix(k, "_p50")] = ws.Quantile(0.50)
		s.Gauges[withSuffix(k, "_p99")] = ws.Quantile(0.99)
		s.Gauges[withSuffix(k, "_p999")] = ws.Quantile(0.999)
	}
	return s
}

// Merge folds another snapshot into this one: counters, gauges, and
// histogram buckets are summed, which is the right aggregation for
// cluster-wide totals (carouselctl stats scraping every node).
func (s *Snapshot) Merge(o *Snapshot) {
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] += v
	}
	for k, v := range o.Histograms {
		h := s.Histograms[k]
		h.merge(v)
		s.Histograms[k] = h
	}
}

// sortedKeys returns map keys in lexicographic order, for deterministic
// output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
