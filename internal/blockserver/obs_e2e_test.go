package blockserver

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
	"carousel/internal/obs"
)

// TestDegradedReadObservability is the end-to-end check of the tentpole:
// a degraded read over real TCP (one server dead, one block corrupt) must
// leave a complete trail — a span tree with the locate/fetch/decode/verify
// stages linked under one trace ID, and the fallback/corrupt counters
// advanced in step with the per-call ReadStats.
func TestDegradedReadObservability(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 16
	size := 2*6*blockSize + 37
	data := make([]byte, size)
	rand.New(rand.NewSource(23)).Read(data)

	servers, addrs, _ := startFaultServers(t, code, 12)
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithHedgeDelay(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := store.WriteFile(ctx, "obsfile", data); err != nil {
		t.Fatal(err)
	}

	// Fault the cluster: server 5 dies (every stripe must re-plan) and a
	// block on server 2 rots (a corrupt verdict must surface).
	servers[5].Close()
	if err := servers[2].CorruptBlock(BlockName("obsfile", 0, 2), 3); err != nil {
		t.Fatal(err)
	}

	fallback0 := mStripesFallback.Value()
	corrupt0 := mCorruptSources.Value()
	bytes0 := mBytesFetched.Value()

	rctx, root := obs.StartSpan(ctx, "test.read")
	got, stats, err := store.ReadFile(rctx, "obsfile", size)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong bytes")
	}

	// ReadStats and the process counters must move together: the counters
	// are the cluster-scrape view of the same events.
	if stats.StripesFallback == 0 {
		t.Error("expected fallback stripes with a dead data source")
	}
	if stats.CorruptSources == 0 {
		t.Error("expected a corrupt source verdict from the rotted block")
	}
	if d := mStripesFallback.Value() - fallback0; d < int64(stats.StripesFallback) {
		t.Errorf("store_fallback_stripes_total advanced by %d, stats say %d", d, stats.StripesFallback)
	}
	if d := mCorruptSources.Value() - corrupt0; d < int64(stats.CorruptSources) {
		t.Errorf("store_corrupt_sources_total advanced by %d, stats say %d", d, stats.CorruptSources)
	}
	if d := mBytesFetched.Value() - bytes0; d < stats.BytesFetched {
		t.Errorf("store_bytes_fetched_total advanced by %d, stats say %d", d, stats.BytesFetched)
	}

	// The trace must decompose the read into its stages.
	if stats.TraceID == 0 {
		t.Fatal("ReadStats carries no trace ID")
	}
	// The in-process servers record into the same tracer, and a span is
	// recorded when it ends: a cancelled loser's server.get may still be
	// finishing its reply after ReadFile has returned, its verify child
	// already recorded. Poll until no span is waiting for its parent.
	var spans []obs.SpanRecord
	var byID map[uint64]obs.SpanRecord
	names := make(map[string]int)
	var rootID uint64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		spans = obs.DefaultTracer().Spans(stats.TraceID)
		byID = make(map[uint64]obs.SpanRecord, len(spans))
		for _, s := range spans {
			byID[s.ID] = s
		}
		orphans := 0
		for _, s := range spans {
			if _, ok := byID[s.Parent]; !ok && s.Parent != 0 {
				orphans++
			}
		}
		if orphans == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the read's trace")
	}
	for _, s := range spans {
		names[s.Name]++
		if s.Name == "store.read" {
			rootID = s.ID
		}
	}
	for _, want := range []string{"store.read", "stripe", "locate", "fetch", "decode", "verify"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from degraded-read trace (have %v)", want, names)
		}
	}
	if rootID == 0 {
		t.Fatal("no store.read root span")
	}
	// Parent/child integrity: every non-root span's parent is in the trace.
	for _, s := range spans {
		if s.ID == root.ID() {
			continue
		}
		if s.ID == rootID {
			if s.Parent != root.ID() {
				t.Errorf("store.read hangs off %d, want the caller's root %d", s.Parent, root.ID())
			}
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %q (%d) has parent %d outside its trace", s.Name, s.ID, s.Parent)
		}
	}
	// The re-planned fetch identifies itself — p = n leaves no spare
	// blocks, so the degraded plan patches from parity units — and hangs
	// off the read's batch span, since one fetch serves every stripe of the
	// batch; the decode hangs off a stripe span: the shape `carouselctl`'s
	// /debug/traces tree renders.
	patch := false
	for _, s := range spans {
		if s.Name != "fetch" {
			continue
		}
		if v := s.Attr("mode"); v == "patch" {
			patch = true
			if p, ok := byID[s.Parent]; !ok || p.Name != "batch" {
				t.Errorf("patch fetch span's parent is %v, want the read's batch span", s.Parent)
			}
		}
	}
	if !patch {
		t.Error("no fetch span with mode=patch despite fallback stripes")
	}
	for _, s := range spans {
		if s.Name == "decode" {
			if p, ok := byID[s.Parent]; !ok || p.Name != "stripe" {
				t.Errorf("decode span's parent is %d, want a stripe span", s.Parent)
			}
		}
	}
}

// TestReadStatsCountsAllCorruptVerdicts pins the accounting rule: every
// corrupt verdict a stripe's fetches bring back is folded into ReadStats —
// a round is waited out in full, so a verdict that lands after another
// source has already failed the round is not dropped with it.
func TestReadStatsCountsAllCorruptVerdicts(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 16
	size := 6 * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(29)).Read(data)

	servers, addrs, injectors := startFaultServers(t, code, 12)
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithHedgeDelay(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := store.WriteFile(ctx, "drainfile", data); err != nil {
		t.Fatal(err)
	}
	// Kill one source, rot two blocks, and slow four healthy servers: the
	// dead source and both corrupt verdicts fail the first round while
	// slower fetches are still in flight, and both verdicts must be
	// counted.
	servers[5].Close()
	for i := 6; i <= 7; i++ {
		if err := servers[i].CorruptBlock(BlockName("drainfile", 0, i), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 8; i < 12; i++ {
		injectors[i].SetDefault(faultnet.Policy{DelayWrite: 60 * time.Millisecond})
	}
	got, stats, err := store.ReadFile(ctx, "drainfile", size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned wrong bytes")
	}
	if stats.StripesFallback != 1 {
		t.Errorf("StripesFallback = %d, want 1", stats.StripesFallback)
	}
	if stats.CorruptSources < 2 {
		t.Errorf("CorruptSources = %d, want >= 2 (both rotted blocks' verdicts)", stats.CorruptSources)
	}
}
