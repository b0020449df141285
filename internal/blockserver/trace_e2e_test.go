package blockserver

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
	"carousel/internal/obs"
)

// TestCrossNodeTraceStitching is the end-to-end check of wire trace
// propagation: a degraded read over real TCP against faultnet-straggled
// servers — each "node" with its own tracer and /debug/traces endpoint —
// must yield ONE stitched trace in which the client's span tree parents
// server-side spans from at least two distinct nodes. Every range the read
// asks for is unit-aligned, so the servers checksum none of what they send:
// the server-side verify spans, if any, add up to 0 bytes. The whole
// exercise must be goroutine-leak-free.
func TestCrossNodeTraceStitching(t *testing.T) {
	base := runtime.NumGoroutine()
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 16
	size := 2*6*blockSize + 11
	data := make([]byte, size)
	rand.New(rand.NewSource(41)).Read(data)

	servers, addrs, injectors := startFaultServers(t, code, 12)

	// Give every server its own tracer and obs endpoint, the multi-node
	// topology in one process. The client's spans live in the process
	// default tracer behind its own endpoint.
	endpoints := make([]string, 0, 13)
	muxes := make([]*httptest.Server, 0, 13)
	for _, srv := range servers {
		tr := obs.NewTracer(1024)
		srv.SetTracer(tr)
		m := httptest.NewServer(obs.NewMux(obs.NewRegistry(), tr))
		muxes = append(muxes, m)
		endpoints = append(endpoints, m.Listener.Addr().String())
	}
	clientMux := httptest.NewServer(obs.NewMux(obs.Default(), obs.DefaultTracer()))
	muxes = append(muxes, clientMux)
	endpoints = append(endpoints, clientMux.Listener.Addr().String())

	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithHedgeDelay(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := store.WriteFile(ctx, "tracefile", data); err != nil {
		t.Fatal(err)
	}

	// Straggle two data sources beyond the hedge deadline: every stripe
	// strikes them and re-plans, pulling replacement units (server-side
	// ranges) from the spare blocks.
	for i := 4; i <= 5; i++ {
		injectors[i].SetDefault(faultnet.Policy{DelayWrite: 400 * time.Millisecond})
	}

	rctx, root := obs.StartSpan(ctx, "test.read")
	got, stats, err := store.ReadFile(rctx, "tracefile", size)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong bytes")
	}
	if stats.StripesFallback == 0 {
		t.Fatal("expected fallback stripes with straggled data sources")
	}
	if stats.TraceID == 0 {
		t.Fatal("ReadStats carries no trace ID")
	}

	// Collect and stitch. Server spans End after the response is written,
	// so the read can return a beat before the last span lands in its ring:
	// poll briefly rather than flake.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var spans []obs.SpanRecord
	var serverNodes map[string]bool
	deadline := time.Now().Add(5 * time.Second)
	for {
		var errs map[string]error
		spans, errs = obs.CollectTrace(ctx, hc, endpoints, stats.TraceID)
		if errs != nil {
			t.Fatalf("collect errors: %v", errs)
		}
		serverNodes = map[string]bool{}
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "server.") {
				if n, ok := s.Attr("node").(string); ok {
					serverNodes[n] = true
				}
			}
		}
		if len(serverNodes) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	byID := make(map[uint64]obs.SpanRecord, len(spans))
	names := make(map[string]int)
	var rootID uint64
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name]++
		if s.Name == "store.read" {
			rootID = s.ID
		}
	}
	if rootID == 0 {
		t.Fatal("stitched trace has no store.read root")
	}
	if p := byID[rootID].Parent; p != root.ID() {
		t.Fatalf("store.read hangs off %d, want the caller's root %d", p, root.ID())
	}
	if len(serverNodes) < 2 {
		t.Fatalf("server spans from %d nodes, want >= 2 (names: %v)", len(serverNodes), names)
	}
	if names["server.get"] == 0 && names["server.range"] == 0 {
		t.Fatalf("no server-side fetch spans in stitched trace: %v", names)
	}
	if names["verify"] == 0 {
		t.Fatalf("no verify spans in stitched trace: %v", names)
	}

	// Every server span must chain up through the client's spans to the
	// store.read root — that is what "one stitched tree" means.
	climb := func(s obs.SpanRecord) string {
		for hops := 0; hops < 32; hops++ {
			if s.ID == rootID {
				return ""
			}
			p, ok := byID[s.Parent]
			if !ok {
				return "broken parent chain"
			}
			s = p
		}
		return "parent cycle"
	}
	serverVerified := 0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "server.") {
			if msg := climb(s); msg != "" {
				t.Errorf("server span %s (%d): %s", s.Name, s.ID, msg)
			}
			if p, ok := byID[s.Parent]; !ok || p.Name != "fetch" {
				t.Errorf("server span %s parented under %q, want the client fetch span", s.Name, p.Name)
			}
		}
		// Server-side verify children hang off server.* spans.
		if s.Name == "verify" {
			if p, ok := byID[s.Parent]; ok && strings.HasPrefix(p.Name, "server.") {
				n, _ := s.Attr("bytes").(float64)
				serverVerified += int(n)
			}
		}
	}
	if serverVerified != 0 {
		t.Errorf("servers checksummed %d stored bytes for unit-aligned ranges, want 0", serverVerified)
	}

	// The stitched tree renders as one nested text tree.
	tree := obs.TreeString(spans)
	if !strings.Contains(tree, "store.read") || !strings.Contains(tree, "server.") {
		t.Fatalf("stitched tree incomplete:\n%s", tree)
	}

	// Tear everything down and prove no goroutine leaked.
	store.Close()
	for _, m := range muxes {
		m.Close()
	}
	for _, srv := range servers {
		srv.Close()
	}
	hc.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestUntracedReadRecordsNoSpans pins tracing on request: a WriteFile,
// ReadFile and RecoverServer whose caller roots no trace record no span,
// neither in the client's tracer nor in any server's — their requests carry
// no trace context — and the read's TraceID is 0.
func TestUntracedReadRecordsNoSpans(t *testing.T) {
	code := mustCode(t)
	servers, addrs := startServers(t, code, code.N())
	tracers := make([]*obs.Tracer, len(servers))
	for i, srv := range servers {
		tracers[i] = obs.NewTracer(64)
		srv.SetTracer(tracers[i])
	}
	blockSize := code.BlockAlign() * 4
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, 3*code.K()*blockSize+17)
	rand.New(rand.NewSource(45)).Read(data)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	t0 := time.Now()
	_, marker := obs.StartSpan(context.Background(), "test.marker")
	marker.End()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	got, stats, err := store.ReadFile(ctx, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read: %v, identical %v", err, bytes.Equal(got, data))
	}
	if stats.TraceID != 0 {
		t.Errorf("an untraced read reports trace %d, want 0", stats.TraceID)
	}
	const failed = 3
	deleteServerBlocks(t, addrs[failed], "f", 4, failed)
	if _, err := store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: len(data)}}); err != nil {
		t.Fatal(err)
	}
	waitIdle(servers)

	for i, tr := range tracers {
		if spans := tr.Recent(0); len(spans) != 0 {
			t.Errorf("server %d recorded %d spans, the first %q, want none", i, len(spans), spans[0].Name)
		}
	}
	// The process tracer is shared: what this test recorded is what started
	// after it began and ended after its marker.
	var mine []string
	recent := obs.DefaultTracer().Recent(0)
	for i := len(recent) - 1; i >= 0 && recent[i].ID != marker.ID(); i-- {
		if recent[i].Start.After(t0) {
			mine = append(mine, recent[i].Name)
		}
	}
	if len(mine) != 0 {
		t.Errorf("the client recorded %d spans under no caller's trace: %v", len(mine), mine)
	}
}
