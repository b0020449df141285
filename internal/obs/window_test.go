package obs

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWindowHistogramSliding verifies that observations age out of the
// window as the (injected) clock advances.
func TestWindowHistogramSliding(t *testing.T) {
	var now atomic.Int64
	w := NewWindowHistogram(10*time.Second, 5) // 2s slices
	w.setClock(now.Load)

	for i := 0; i < 100; i++ {
		w.Observe(1000)
	}
	if s := w.Snapshot(); s.Count != 100 {
		t.Fatalf("fresh window count = %d, want 100", s.Count)
	}

	// Half a window later the old observations are still in range.
	now.Store(int64(5 * time.Second))
	w.Observe(2000)
	if s := w.Snapshot(); s.Count != 101 {
		t.Fatalf("mid-window count = %d, want 101", s.Count)
	}

	// A full window past the first batch, only the second remains.
	now.Store(int64(11 * time.Second))
	if s := w.Snapshot(); s.Count != 1 {
		t.Fatalf("after slide count = %d, want 1", s.Count)
	}

	// And past everything, the window is empty.
	now.Store(int64(30 * time.Second))
	if s := w.Snapshot(); s.Count != 0 {
		t.Fatalf("expired window count = %d, want 0", s.Count)
	}

	// A slice index that wraps the ring must reset stale data.
	now.Store(int64(40 * time.Second))
	w.Observe(7)
	if s := w.Snapshot(); s.Count != 1 || s.Sum != 7 {
		t.Fatalf("wrapped slice snapshot = %+v, want count 1 sum 7", s)
	}
}

// TestWindowQuantileGauges: registry windows must surface as _p50/_p99/
// _p999 gauges in the snapshot.
func TestWindowQuantileGauges(t *testing.T) {
	r := NewRegistry()
	w := r.Window("lat_ns", "op", "get")
	for i := 1; i <= 1000; i++ {
		w.Observe(int64(i) * 1000)
	}
	s := r.Snapshot()
	p50 := s.Gauges[`lat_ns_p50{op="get"}`]
	p99 := s.Gauges[`lat_ns_p99{op="get"}`]
	p999 := s.Gauges[`lat_ns_p999{op="get"}`]
	if p50 <= 0 || p99 <= 0 || p999 <= 0 {
		t.Fatalf("quantile gauges missing or zero: p50=%d p99=%d p999=%d", p50, p99, p999)
	}
	if p50 > p99 || p99 > p999 {
		t.Fatalf("quantiles not monotone: p50=%d p99=%d p999=%d", p50, p99, p999)
	}
	// Same name+labels must intern to the same window.
	if r.Window("lat_ns", "op", "get") != w {
		t.Fatal("Window did not intern")
	}
}

// TestWindowConcurrent hammers one window from many goroutines under
// -race; rotation must stay atomic.
func TestWindowConcurrent(t *testing.T) {
	w := NewWindowHistogram(50*time.Millisecond, 5)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w.Observe(int64(i%100 + 1))
				if i%64 == 0 {
					w.Snapshot()
				}
			}
		}()
	}
	time.Sleep(60 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s := w.Snapshot(); s.Count < 0 {
		t.Fatalf("negative count %d", s.Count)
	}
}

// TestSLO verifies the good/slow/error accounting, the cumulative error
// budget, and the windowed burn rate.
func TestSLO(t *testing.T) {
	r := NewRegistry()
	slo := NewSLO(r, "read", 10*time.Millisecond, 0.9)

	// 90 good ops, 5 slow, 5 errored: exactly at the 10% allowance.
	for i := 0; i < 90; i++ {
		slo.Observe(time.Millisecond, nil)
	}
	for i := 0; i < 5; i++ {
		slo.Observe(50*time.Millisecond, nil)
	}
	for i := 0; i < 5; i++ {
		slo.Observe(time.Millisecond, errors.New("boom"))
	}

	s := r.Snapshot()
	if got := s.Counters[`slo_ops_total{slo="read"}`]; got != 100 {
		t.Fatalf("ops = %d, want 100", got)
	}
	if got := s.Counters[`slo_bad_total{slo="read",reason="slow"}`]; got != 5 {
		t.Fatalf("slow = %d, want 5", got)
	}
	if got := s.Counters[`slo_bad_total{slo="read",reason="error"}`]; got != 5 {
		t.Fatalf("errors = %d, want 5", got)
	}
	// Budget: allowed 10 bad of 100, used 10 → 0 remaining.
	if got := slo.ErrorBudgetRemainingPPM(); got != 0 {
		t.Fatalf("budget remaining = %d, want 0", got)
	}
	// Burn rate: 10% bad over 10% allowed → exactly 1000.
	if got := slo.BurnRateX1000(); got != 1000 {
		t.Fatalf("burn rate = %d, want 1000", got)
	}
	if _, ok := s.Gauges[`slo_error_budget_remaining_ppm{slo="read"}`]; !ok {
		t.Fatal("budget gauge not registered")
	}
	if _, ok := s.Gauges[`slo_burn_rate_x1000{slo="read"}`]; !ok {
		t.Fatal("burn gauge not registered")
	}
	// The latency window exports tail gauges.
	if got := s.Gauges[`slo_latency_ns_p99{slo="read"}`]; got <= 0 {
		t.Fatalf("slo latency p99 = %d, want > 0", got)
	}

	// A fresh SLO has its whole budget and no burn.
	idle := NewSLO(r, "idle", time.Second, 0.999)
	if got := idle.ErrorBudgetRemainingPPM(); got != 1_000_000 {
		t.Fatalf("idle budget = %d, want 1000000", got)
	}
	if got := idle.BurnRateX1000(); got != 0 {
		t.Fatalf("idle burn = %d, want 0", got)
	}
}

// TestStartRemote: a remote-parented span must join the wire trace, and
// its children must chain under it.
func TestStartRemote(t *testing.T) {
	client := NewTracer(64)
	server := NewTracer(64)
	cctx, root := client.Start(nil, "store.read")
	_, stripe := client.Start(cctx, "stripe")

	sctx, srv := server.StartRemote(nil, "server.get", stripe.TraceID(), stripe.ID())
	_, verify := server.StartRemote(nil, "verify", 0, 0) // trace 0 roots fresh
	verify.End()
	_, child := server.Start(sctx, "verify2")
	child.End()
	srv.End()
	stripe.End()
	root.End()

	if srv.TraceID() != root.TraceID() {
		t.Fatalf("remote span trace %d, want %d", srv.TraceID(), root.TraceID())
	}
	spans := server.Spans(root.TraceID())
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	got, ok := byName["server.get"]
	if !ok || got.Parent != stripe.ID() {
		t.Fatalf("server.get parent = %d, want %d", got.Parent, stripe.ID())
	}
	if c := byName["verify2"]; c.Parent != srv.ID() || c.Trace != root.TraceID() {
		t.Fatalf("verify2 parent/trace = %d/%d, want %d/%d", c.Parent, c.Trace, srv.ID(), root.TraceID())
	}
	// StartRemote with trace 0 roots a fresh trace.
	if verify.TraceID() == root.TraceID() {
		t.Fatal("trace 0 should have rooted a new trace")
	}
	// Span IDs from the two tracers must not collide (random bases).
	ids := map[uint64]bool{root.ID(): true, stripe.ID(): true}
	for _, s := range []*Span{srv, verify, child} {
		if ids[s.ID()] {
			t.Fatalf("span ID collision across tracers: %d", s.ID())
		}
		ids[s.ID()] = true
	}
}
