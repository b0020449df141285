package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"carousel/internal/stripecache"
)

// metricDef names one metric and its unit. The two lists below are the
// ones BENCHMARK.json declares; bench_test.go holds them equal.
type metricDef struct{ name, unit string }

// endToEnd is what a caller of the Store sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_mbps", "MB/s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"wire_bytes_per_user_byte", "B/B"},
	{"alloc_bytes_per_user_byte", "B/B"},
	{"mem_sys_mb", "MB"},
}

// perLayer is what the traced run reports: the layer walk, the counts
// taken at the Store's boundary, and the unrolled operation's shares.
var perLayer = []metricDef{
	{"gf256.mul_add_gbps", "GB/s"},
	{"gf256.mul_gbps", "GB/s"},
	{"gf256.add_gbps", "GB/s"},
	{"codeplan.encode_run_gbps", "GB/s"},
	{"codeplan.compile_us", "us"},
	{"codeplan.muladd_ops", "count"},
	{"carousel.new_ms", "ms"},
	{"carousel.encode_mbps", "MB/s"},
	{"carousel.encode_alloc_bytes_per_user_byte", "B/B"},
	{"carousel.parallel_read_mbps", "MB/s"},
	{"carousel.decode_anyk_mbps", "MB/s"},
	{"carousel.plan_read_us", "us"},
	{"carousel.helper_chunk_mbps", "MB/s"},
	{"carousel.repair_block_mbps", "MB/s"},
	{"reedsolomon.encode_mbps", "MB/s"},
	{"workpool.dispatch_us", "us"},
	{"bufpool.get_put_ns", "ns"},
	{"rpc.get_range_small_us", "us"},
	{"pool.checkout_ns", "ns"},
	{"rpc.allocs_per_get", "count"},
	{"rpc.get_range_block_mbps", "MB/s"},
	{"rpc.put_block_mbps", "MB/s"},
	{"rpc.chunk_us", "us"},
	{"rpc.dial_us", "us"},
	{"rpc.dead_peer_fail_ms", "ms"},
	{"stripecache.get_hit_ns", "ns"},
	{"stripecache.put_ns", "ns"},
	{"stripecache.evictions_per_kop", "count"},
	{"stripecache.hit_ratio", "ratio"},
	{"stripecache.coalesced_per_kop", "count"},
	{"store.stripes_fallback_ratio", "ratio"},
	{"store.dials_per_op", "count"},
	{"store.helper_max_over_mean", "ratio"},
	{"store.op_p90_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"store.pipeline_gain", "ratio"},
	{"store.share_rpc", "ratio"},
	{"store.share_codec", "ratio"},
	{"store.share_cache", "ratio"},
	{"store.share_other", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"fail_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

// set records a metric under its declared unit; an undeclared name is a
// bug in the harness.
func (m metrics) set(name string, v float64) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				m[name] = metricValue{v, d.unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

var errNoProgress = errors.New("no operation completed inside the window")

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where the traced run writes its span file
}

// result is one run: what the acceptance driver reads from the last line
// of standard output, plus what a results file keeps beside it.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Host      hostStamp `json:"host"`
	Samples   int       `json:"samples"` // op latencies behind the percentiles
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metrics   `json:"metrics"`
	Error     string    `json:"error,omitempty"`
}

// setupBuilds is how many times an untraced run builds the fixture; setup_s
// is their median. One cluster start is short enough for a single scheduling
// hiccup to dominate it, and the first in a process, on a cold heap, is
// always the slowest: with three builds the median flipped between the two
// kinds and moved 18 % between sets of runs, with five it does not.
const setupBuilds = 5

// run executes one workload once and returns its metrics. An error means
// the run could not be made; wrong bytes are reported in the result.
func run(ctx context.Context, cfg config) (*result, error) {
	spec := findWorkload(cfg.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	build := func() (*fixture, float64, error) {
		t0 := time.Now()
		f, err := newFixture(ctx, spec, cfg.seed)
		return f, time.Since(t0).Seconds(), err
	}
	f, first, err := build()
	if err != nil {
		return nil, err
	}
	res, err := measure(ctx, f, cfg)
	f.close()
	if err != nil || cfg.trace {
		return res, err
	}
	// The other builds come after the window, each torn down unused, so the
	// window and mem_sys_mb see a process that was set up once.
	setups := []float64{first}
	for len(setups) < setupBuilds {
		// Collect the last fixture before the next is timed, so its garbage
		// does not count against this one.
		runtime.GC()
		f, s, err := build()
		if err != nil {
			return nil, err
		}
		f.close()
		setups = append(setups, s)
	}
	res.Metrics.set("setup_s", median(setups))
	return res, nil
}

// measure runs the window, traced or not, on a fixture that is set up. The
// untraced result still lacks setup_s, which is the caller's to time.
func measure(ctx context.Context, f *fixture, cfg config) (*result, error) {
	res := &result{Workload: f.spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: stampHost(), Metrics: metrics{}}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var err error
	if cfg.trace {
		err = runTraced(ctx, f, window, cfg.outDir, res)
	} else {
		err = runPlain(ctx, f, window, res)
	}
	if err != nil {
		return nil, err
	}
	if ferr := f.spec.finish(ctx, f); ferr != nil {
		res.Error = ferr.Error()
	}
	res.Correct = res.Failed == 0 && res.Error == ""
	return res, nil
}

// closedLoop runs the workload's clients for the window: each issues its
// next operation when its last one has been checked. each, if set, is
// called after every operation with the client that made it.
func closedLoop(ctx context.Context, f *fixture, window time.Duration, each func(c *client)) []*client {
	clients := make([]*client, f.clients())
	for i := range clients {
		clients[i] = &client{seq: f.seq, lat: make([]float64, 0, 1<<18)}
	}
	end := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				f.spec.op(ctx, f, c)
				if each != nil {
					each(c)
				}
			}
		}()
	}
	wg.Wait()
	return clients
}

// totals folds the clients' tallies together.
type totals struct {
	attempted, failed int64
	user, wire        int64
	stripes, fallback int64
	lat               []float64 // ascending
	balance           []float64
	// bytesPerSec and opsPerSec are sums over clients of each client's
	// work divided by the time it spent inside Store calls: checking an
	// operation's bytes is not the Store's time.
	bytesPerSec, opsPerSec float64
}

func fold(clients []*client) totals {
	var t totals
	for _, c := range clients {
		t.attempted += c.attempted
		t.failed += c.failed
		t.user += c.user
		t.wire += c.wire
		t.stripes += c.stripes
		t.fallback += c.fallback
		t.lat = append(t.lat, c.lat...)
		t.balance = append(t.balance, c.balance...)
		if busy := c.busy.Seconds(); busy > 0 {
			t.bytesPerSec += float64(c.user) / busy
			t.opsPerSec += float64(c.attempted) / busy
		}
	}
	t.lat = sorted(t.lat)
	return t
}

// cacheCounts is the part of stripecache.Stats that only grows.
type cacheCounts struct{ hits, misses, evictions, coalesced int64 }

func countsOf(s stripecache.Stats) cacheCounts {
	return cacheCounts{s.Hits, s.Misses, s.Evictions, s.CoalescedWaiters}
}

func (a cacheCounts) minus(b cacheCounts) cacheCounts {
	return cacheCounts{a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions, a.coalesced - b.coalesced}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runPlain is the measured window with tracing off: the end-to-end
// metrics.
func runPlain(ctx context.Context, f *fixture, window time.Duration, res *result) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	clients := closedLoop(ctx, f, window, nil)
	runtime.ReadMemStats(&m1)
	t := fold(clients)
	if t.attempted == 0 || t.user == 0 {
		return errNoProgress
	}
	res.Attempted, res.Failed, res.Samples = t.attempted, t.failed, len(t.lat)
	m := res.Metrics
	m.set("throughput_mbps", t.bytesPerSec/1e6)
	m.set("ops_per_s", t.opsPerSec)
	m.set("op_p50_ms", quantile(t.lat, 0.50))
	m.set("wire_bytes_per_user_byte", ratio(t.wire, t.user))
	m.set("alloc_bytes_per_user_byte", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(t.user))
	m.set("mem_sys_mb", float64(m1.Sys)/1e6)
	return nil
}

// traceSlices is how many slices the traced run's Store operations fall
// into, alternately unrecorded and recorded.
const traceSlices = 8

// runTraced is the second run: Store operations, half of them recorded as
// spans, the same operation unrolled from the layers' public calls, and
// the layer walk. It writes the spans to a file when done.
func runTraced(ctx context.Context, f *fixture, window time.Duration, outDir string, res *result) error {
	rec := newRecorder()
	m := res.Metrics
	pool := f.store.Pool()

	// Store operations, a third of the window, in traceSlices equal slices:
	// every operation of an odd slice is recorded as a span, none of an even
	// one. What recording costs the operations around it lands in the odd
	// slices' latencies only, and slices this short see the same host.
	start, slice := time.Now(), window/3/traceSlices
	dials0 := pool.DialCounts()
	var cache0 cacheCounts
	if c := f.store.Cache(); c != nil {
		cache0 = countsOf(c.Stats())
	}
	clients := closedLoop(ctx, f, window/3, func(c *client) {
		d := c.lat[len(c.lat)-1]
		if int(c.t0.Sub(start)/slice)%2 == 0 {
			c.unrecorded = append(c.unrecorded, d)
			return
		}
		c.recorded = append(c.recorded, d)
		rec.add(rec.id(), rec.id(), 0, layerStore, c.opName, c.t0, c.t1, 0)
	})
	var recorded, unrecorded []float64
	for _, c := range clients {
		recorded = append(recorded, c.recorded...)
		unrecorded = append(unrecorded, c.unrecorded...)
	}
	t := fold(clients)
	if t.attempted == 0 {
		return errNoProgress
	}
	res.Attempted, res.Failed, res.Samples = t.attempted, t.failed, len(t.lat)
	var dials int64
	for addr, n := range pool.DialCounts() {
		dials += n - dials0[addr]
	}
	m.set("fail_ratio", ratio(t.failed, t.attempted))
	m.set("store.stripes_fallback_ratio", ratio(t.fallback, t.stripes))
	m.set("store.dials_per_op", ratio(dials, t.attempted))
	m.set("store.helper_max_over_mean", median(t.balance))
	m.set("store.op_p90_ms", quantile(t.lat, 0.90))
	m.set("op_p99_ms", quantile(t.lat, 0.99))
	overhead := 1.0 // with operations on one side only, none to show
	if len(recorded) > 0 && len(unrecorded) > 0 {
		overhead = median(recorded) / median(unrecorded)
	}
	m.set("trace.overhead_ratio", overhead)
	var cc cacheCounts
	if c := f.store.Cache(); c != nil {
		cc = countsOf(c.Stats()).minus(cache0)
	}
	m.set("stripecache.hit_ratio", ratio(cc.hits, cc.hits+cc.misses))
	m.set("stripecache.evictions_per_kop", 1e3*ratio(cc.evictions, t.attempted))
	m.set("stripecache.coalesced_per_kop", 1e3*ratio(cc.coalesced, t.attempted))

	// The unrolled operation, on one goroutine: up to unrolledOps of them
	// in another third of the window.
	unrolledOps := 50
	if f.spec.small {
		unrolledOps = 2000
	}
	u := newUnroller(f, rec)
	if u.cache != nil {
		// Fill the unroller's own cache as the Store's was, unrecorded.
		warm := *u
		warm.rec = newRecorder()
		for i := 0; i < swarmWarmup/2; i++ {
			if _, err := f.spec.unrolled(ctx, &warm, 0, 0); err != nil {
				return err
			}
		}
	}
	var unrolled []float64
	first := len(rec.spans)
	for end := time.Now().Add(window / 3); len(unrolled) < 3 || len(unrolled) < unrolledOps && time.Now().Before(end); {
		trace, root := rec.id(), rec.id()
		t0 := time.Now()
		v, err := f.spec.unrolled(ctx, u, trace, root)
		t1 := time.Now()
		if err == nil {
			err = v.check()
		}
		if err != nil {
			return err
		}
		rec.add(trace, root, 0, layerOther, "unrolled."+f.spec.name, t0, t1, v.bytes)
		unrolled = append(unrolled, float64(t1.Sub(t0).Nanoseconds())/1e6)
	}
	m.set("store.pipeline_gain", median(unrolled)/quantile(t.lat, 0.50))
	self, total, err := selfTimeByLayer(rec.spans[first:])
	if err != nil {
		return err
	}
	m.set("store.share_rpc", ratio(self[layerRPC], total))
	m.set("store.share_codec", ratio(self[layerCodec], total))
	m.set("store.share_cache", ratio(self[layerCache], total))
	m.set("store.share_other", ratio(self[layerOther], total))

	// The layer walk, in the last third.
	if err := walkLayers(ctx, f, window/3, m); err != nil {
		return err
	}
	return rec.write(filepath.Join(outDir, "trace-"+f.spec.name+".jsonl"))
}
