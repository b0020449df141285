package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this is the data-race check the Makefile's obs target exists
// for.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

// TestCounterInterning verifies that the same name+labels return the same
// handle and different labels do not.
func TestCounterInterning(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("rpcs_total", "op", "get")
	b := r.Counter("rpcs_total", "op", "get")
	c := r.Counter("rpcs_total", "op", "put")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
	a.Add(3)
	snap := r.Snapshot()
	if snap.Counters[`rpcs_total{op="get"}`] != 3 {
		t.Fatalf("snapshot missing labeled counter: %v", snap.Counters)
	}
}

// TestHistogramConcurrent checks count/sum/bucket consistency after
// concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*per + i))
			}
		}()
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketSum int64
	for _, b := range s.Buckets {
		bucketSum += b
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	n := int64(goroutines * per)
	if want := n * (n - 1) / 2; s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
}

// TestHistogramBuckets pins the bucketing scheme: <=0 in bucket 0, powers
// of two at bit-length boundaries.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11}}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketUpper(10) != 1023 {
		t.Errorf("BucketUpper(10) = %d, want 1023", BucketUpper(10))
	}
}

// TestQuantile checks the estimate lands within its bucket's bounds.
func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_ns")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000) // 1µs .. 1ms in ns
	}
	s := h.snapshot()
	p50 := s.Quantile(0.5)
	// True median is 500_500ns; the bucket [2^18, 2^19) contains it, so the
	// estimate must land within a factor of 2.
	if p50 < 250_000 || p50 > 1_000_000 {
		t.Fatalf("p50 = %d, want within [250000, 1000000]", p50)
	}
	if q := s.Quantile(1.0); q < p50 {
		t.Fatalf("p100 %d < p50 %d", q, p50)
	}

	// Nearest rank is the ceiling: one straggler among a handful of fast
	// samples must own the tail quantiles (a floored rank reports the fast
	// bucket for p99 and p999 until the window holds 100 / 1000 samples).
	const fast, slow = int64(time.Microsecond), int64(600 * time.Millisecond)
	for _, nFast := range []int{9, 2} {
		h := r.Histogram("straggler_ns", "fast", strconv.Itoa(nFast))
		for i := 0; i < nFast; i++ {
			h.Observe(fast)
		}
		h.Observe(slow)
		s := h.snapshot()
		if q := s.Quantile(0.5); q > 2*fast {
			t.Errorf("%d fast + 1 slow: p50 = %d, want the fast bucket", nFast, q)
		}
		for _, q := range []float64{0.99, 0.999} {
			if got := s.Quantile(q); got < slow/2 || got > 2*slow {
				t.Errorf("%d fast + 1 slow: p%v = %d, want the straggler's bucket (~%d)", nFast, 100*q, got, slow)
			}
		}
	}
}

// TestSnapshotDeterminism: the same state must render byte-identically.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "x", "1").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("g_depth").Set(7)
	r.Histogram("h_ns").Observe(100)
	r.GaugeFunc("f_depth", func() int64 { return 3 })
	var first bytes.Buffer
	if err := WriteText(&first, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := WriteText(&again, r.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if first.String() != again.String() {
			t.Fatalf("snapshot render changed between calls:\n%s\nvs\n%s", first.String(), again.String())
		}
	}
	for _, want := range []string{"# TYPE a_total counter", `b_total{x="1"} 2`, "g_depth 7", "f_depth 3", "# TYPE h_ns histogram", "h_ns_count 1"} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, first.String())
		}
	}
}

// TestTextRoundTrip: a snapshot survives the JSON round trip a scrape of
// /debug/vars makes — quoted label values, values past 2^53, histograms
// and windows — and the exposition renders histograms cumulatively.
func TestTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads_total", "path", "fallback").Add(11)
	r.Counter("reads_total", "path", `a "quoted", odd`).Add(1 << 60)
	r.Gauge("depth").Set(-2)
	h := r.Histogram("rpc_ns", "peer", "a:1")
	h.Observe(500)
	h.Observe(70_000)
	h.Observe(70_000)
	r.Window("rpc_window_ns").Observe(900)
	want := r.Snapshot()
	js, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(js, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("JSON round trip changed the snapshot:\n%+v\nvs\n%+v", got, want)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, want); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`reads_total{path="a \"quoted\", odd"} 1152921504606846976`,
		"rpc_ns_bucket{peer=\"a:1\",le=\"" + strconv.FormatInt(BucketUpper(bucketIndex(500)), 10) + "\"} 1",
		"rpc_ns_bucket{peer=\"a:1\",le=\"" + strconv.FormatInt(BucketUpper(bucketIndex(70_000)), 10) + "\"} 3",
		`rpc_ns_bucket{peer="a:1",le="+Inf"} 3`,
		`rpc_ns_sum{peer="a:1"} 140500`,
		"rpc_window_ns_p50 ",
	} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("exposition missing %q:\n%s", line, buf.String())
		}
	}
}

// TestSnapshotMerge sums counters and histogram buckets — the carouselctl
// stats aggregation.
func TestSnapshotMerge(t *testing.T) {
	a := NewSnapshot()
	a.Counters["x_total"] = 2
	b := NewSnapshot()
	b.Counters["x_total"] = 3
	b.Counters["y_total"] = 1
	var h1, h2 HistogramSnapshot
	h1.Count, h1.Sum = 1, 10
	h1.Buckets[4] = 1
	h2.Count, h2.Sum = 2, 20
	h2.Buckets[4] = 2
	a.Histograms["h_ns"] = h1
	b.Histograms["h_ns"] = h2
	a.Merge(b)
	if a.Counters["x_total"] != 5 || a.Counters["y_total"] != 1 {
		t.Fatalf("merged counters: %v", a.Counters)
	}
	if h := a.Histograms["h_ns"]; h.Count != 3 || h.Sum != 30 || h.Buckets[4] != 3 {
		t.Fatalf("merged histogram: %+v", h)
	}
}

// TestSpanParentChild verifies trace propagation and parent/child
// integrity through contexts.
func TestSpanParentChild(t *testing.T) {
	tr := NewTracer(64)
	ctx, root := tr.Start(nil, "read")
	cctx, fetch := tr.Start(ctx, "fetch")
	_, rpc := tr.Start(cctx, "rpc")
	rpc.SetAttr("peer", "a:1")
	rpc.End()
	fetch.End()
	_, decode := tr.Start(ctx, "decode")
	decode.End()
	root.End()

	spans := tr.Spans(root.TraceID())
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %v", len(spans), spans)
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.Trace != root.TraceID() {
			t.Fatalf("span %s has trace %d, want %d", s.Name, s.Trace, root.TraceID())
		}
	}
	if byName["read"].Parent != 0 {
		t.Fatal("root span has a parent")
	}
	if byName["fetch"].Parent != byName["read"].ID {
		t.Fatal("fetch is not a child of read")
	}
	if byName["rpc"].Parent != byName["fetch"].ID {
		t.Fatal("rpc is not a child of fetch")
	}
	if byName["decode"].Parent != byName["read"].ID {
		t.Fatal("decode is not a child of read")
	}
	if byName["rpc"].Attr("peer") != "a:1" {
		t.Fatalf("rpc attrs = %v", byName["rpc"].Attrs)
	}
	tree := TreeString(spans)
	if !strings.Contains(tree, "read") || !strings.Contains(tree, "  fetch") || !strings.Contains(tree, "    rpc") {
		t.Fatalf("tree rendering wrong:\n%s", tree)
	}
}

// TestSpanNilSafety: nil spans must be inert, so instrumented code never
// branches.
func TestSpanNilSafety(t *testing.T) {
	var s *Span
	s.SetAttr("k", 1)
	s.End()
	if s.TraceID() != 0 || s.ID() != 0 {
		t.Fatal("nil span has nonzero IDs")
	}
}

// TestSpanRingEviction: the ring must retain the newest spans.
func TestSpanRingEviction(t *testing.T) {
	tr := NewTracer(16)
	var last uint64
	for i := 0; i < 50; i++ {
		_, s := tr.Start(nil, "s")
		s.End()
		last = s.TraceID()
	}
	if got := tr.Spans(last); len(got) != 1 {
		t.Fatalf("newest span evicted: %v", got)
	}
	recent := tr.Recent(0)
	if len(recent) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(recent))
	}
}

// TestSpanConcurrent exercises Start/End/record from many goroutines under
// -race.
func TestSpanConcurrent(t *testing.T) {
	tr := NewTracer(128)
	ctx, root := tr.Start(nil, "root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, s := tr.Start(ctx, "child")
				s.SetAttr("i", i)
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if spans := tr.Spans(root.TraceID()); len(spans) == 0 {
		t.Fatal("no spans retained")
	}
}

// TestObserveSince sanity-checks duration observation.
func TestObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_ns")
	t0 := time.Now().Add(-time.Millisecond)
	h.ObserveSince(t0)
	s := h.snapshot()
	if s.Count != 1 || s.Sum < int64(time.Millisecond) {
		t.Fatalf("count=%d sum=%d, want 1 observation >= 1ms", s.Count, s.Sum)
	}
}
