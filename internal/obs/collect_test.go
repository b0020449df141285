package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestCollectTrace stitches spans for one trace from two independent obs
// muxes (two "nodes") into a single tree.
func TestCollectTrace(t *testing.T) {
	trA, trB := NewTracer(64), NewTracer(64)
	regA, regB := NewRegistry(), NewRegistry()

	// Node A is the client: root span with a stripe child.
	actx, root := trA.Start(nil, "store.read")
	_, stripe := trA.Start(actx, "stripe")

	// Node B is the server: its span parents under the stripe via wire IDs.
	bctx, srv := trB.StartRemote(nil, "server.get_range", stripe.TraceID(), stripe.ID())
	_, ver := trB.Start(bctx, "verify")
	ver.End()
	srv.End()
	stripe.End()
	root.End()

	srvA := httptest.NewServer(NewMux(regA, trA))
	defer srvA.Close()
	srvB := httptest.NewServer(NewMux(regB, trB))
	defer srvB.Close()
	epA := srvA.Listener.Addr().String()
	epB := srvB.Listener.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Duplicate endpoint A: dedup by span ID must collapse it.
	spans, errs := CollectTrace(ctx, nil, []string{epA, epB, epA}, root.TraceID())
	if errs != nil {
		t.Fatalf("collect errors: %v", errs)
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %v", len(spans), spans)
	}
	nodes := map[string]bool{}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
		if n, ok := s.Attr("node").(string); ok {
			nodes[n] = true
		}
		if s.Trace != root.TraceID() {
			t.Fatalf("span %s trace %d, want %d", s.Name, s.Trace, root.TraceID())
		}
	}
	if len(nodes) != 2 {
		t.Fatalf("spans from %d nodes, want 2: %v", len(nodes), nodes)
	}
	if byName["server.get_range"].Parent != stripe.ID() {
		t.Fatal("server span not parented under client stripe span")
	}
	tree := TreeString(spans)
	if !strings.Contains(tree, "store.read") ||
		!strings.Contains(tree, "  stripe") ||
		!strings.Contains(tree, "    server.get_range") ||
		!strings.Contains(tree, "      verify") {
		t.Fatalf("stitched tree not nested:\n%s", tree)
	}

	// A dead endpoint is reported but doesn't sink the collection.
	spans, errs = CollectTrace(ctx, nil, []string{epA, "127.0.0.1:1"}, root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("partial collect got %d spans, want 2", len(spans))
	}
	if errs == nil || errs["127.0.0.1:1"] == nil {
		t.Fatalf("dead endpoint not reported: %v", errs)
	}
}

// TestTraceEndpointFilters exercises ?since and ?limit on /debug/traces.
func TestTraceEndpointFilters(t *testing.T) {
	tr := NewTracer(64)
	reg := NewRegistry()
	// The old spans ended an hour ago and mark lies between the two groups,
	// so a ?since of time.Since(mark), taken at query time, tells them apart
	// however late the request reaches the mux.
	for i := 0; i < 5; i++ {
		tr.record(SpanRecord{Name: "old", Start: time.Now().Add(-time.Hour), Duration: time.Millisecond})
	}
	mark := time.Now().Add(-30 * time.Minute)
	for i := 0; i < 3; i++ {
		_, s := tr.Start(nil, "new")
		s.End()
	}
	srv := httptest.NewServer(NewMux(reg, tr))
	defer srv.Close()
	ep := srv.Listener.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	get := func(query string) []SpanRecord {
		t.Helper()
		spans, err := fetchSpans(ctx, ep, query)
		if err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		return spans
	}
	if spans := get("?limit=2"); len(spans) != 2 || spans[0].Name != "new" {
		t.Fatalf("limit=2 returned %v", spans)
	}
	since := func() string { return "?since=" + time.Since(mark).String() }
	spans := get(since())
	if len(spans) != 3 {
		t.Fatalf("since mark returned %d spans, want 3: %v", len(spans), spans)
	}
	for _, s := range spans {
		if s.Name != "new" {
			t.Fatalf("since filter leaked old span: %v", spans)
		}
	}
	if spans := get(since() + "&limit=1"); len(spans) != 1 || spans[0].Name != "new" {
		t.Fatalf("since+limit returned %v", spans)
	}
	if spans := get("?since=10h"); len(spans) != 8 {
		t.Fatalf("wide since returned %d spans, want 8", len(spans))
	}
}

// fetchSpans GETs /debug/traces<query> from an endpoint.
func fetchSpans(ctx context.Context, endpoint, query string) ([]SpanRecord, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+endpoint+"/debug/traces"+query, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var spans []SpanRecord
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return nil, err
	}
	return spans, nil
}
