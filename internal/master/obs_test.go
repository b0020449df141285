package master

import (
	"context"
	"strings"
	"testing"
	"time"

	"carousel/internal/obs"
)

// TestBeatHealthRollup drives the memberSet directly with a fake clock:
// tx rates must derive from consecutive BytesTx samples, the roll-up must
// aggregate only alive members, and health fields must only count for
// members that report an obs endpoint.
func TestBeatHealthRollup(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	ms := newMemberSet(memberConfig{
		Interval: time.Second, MissLimit: 2, Grace: 5 * time.Second,
		RebuildHold: time.Second, FlapWindow: time.Minute,
	}, clock)

	// Two obs-enabled members and one legacy daemon.
	ms.Beat(NodeInfo{Addr: "a:1", Blocks: 10, BlockBytes: 100, ObsAddr: "a:9", BytesTx: 1000, RPCP99NS: 40, QueueDepth: 3, ErrorBudgetPPM: 900_000})
	ms.Beat(NodeInfo{Addr: "b:1", Blocks: 20, BlockBytes: 200, ObsAddr: "b:9", BytesTx: 5000, RPCP99NS: 70, QueueDepth: 1, ErrorBudgetPPM: 400_000})
	ms.Beat(NodeInfo{Addr: "c:1", Blocks: 5, BlockBytes: 50, CorruptServes: 2})

	// First beats carry no rate — no prior sample.
	if mem, _ := ms.Get("a:1"); mem.TxRateBps != 0 {
		t.Fatalf("first beat derived rate %d, want 0", mem.TxRateBps)
	}

	// Two seconds later a served 4000 more bytes, b went backwards
	// (restarted daemon).
	now = now.Add(2 * time.Second)
	ms.Beat(NodeInfo{Addr: "a:1", Blocks: 10, BlockBytes: 100, ObsAddr: "a:9", BytesTx: 5000, RPCP99NS: 60, QueueDepth: 2, ErrorBudgetPPM: 850_000})
	ms.Beat(NodeInfo{Addr: "b:1", Blocks: 20, BlockBytes: 200, ObsAddr: "b:9", BytesTx: 100, RPCP99NS: 70, QueueDepth: 1, ErrorBudgetPPM: 400_000})
	if mem, _ := ms.Get("a:1"); mem.TxRateBps != 2000 {
		t.Fatalf("a tx rate = %d, want 2000", mem.TxRateBps)
	}
	if mem, _ := ms.Get("b:1"); mem.TxRateBps != 0 {
		t.Fatalf("reset counter derived rate %d, want 0", mem.TxRateBps)
	}

	r := ms.Rollup()
	if r.Blocks != 35 || r.BlockBytes != 350 || r.CorruptServes != 2 {
		t.Fatalf("capacity rollup = %+v", r)
	}
	if r.QueueDepth != 3 || r.TxRateBps != 2000 {
		t.Fatalf("health rollup = %+v", r)
	}
	if r.RPCP99NS != 70 {
		t.Fatalf("rollup p99 = %d, want the worst node's 70", r.RPCP99NS)
	}
	if r.ErrorBudgetMinPPM != 400_000 {
		t.Fatalf("rollup budget = %d, want min 400000 (legacy c must not read as 0)", r.ErrorBudgetMinPPM)
	}

	if got := ms.ObsAddrs(); len(got) != 2 || got[0] != "a:9" || got[1] != "b:9" {
		t.Fatalf("ObsAddrs = %v", got)
	}

	// A dead member drops out of the roll-up entirely.
	now = now.Add(time.Hour)
	ms.Tick()
	r = ms.Rollup()
	if r.Blocks != 0 || r.QueueDepth != 0 || r.ErrorBudgetMinPPM != 1_000_000 {
		t.Fatalf("rollup after death = %+v", r)
	}
}

// TestClusterRollupGauges: a master with beating members must export the
// cluster_* gauges on the default registry.
func TestClusterRollupGauges(t *testing.T) {
	code := testCode(t)
	m, err := New(fastMasterConfig(code))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	c := NewClient(m.Addr(), nil)
	defer c.Close()
	if _, err := c.Register(NodeInfo{Addr: "n1:1", Blocks: 7, BlockBytes: 700, CorruptServes: 3, ObsAddr: "n1:9", RPCP99NS: 55, QueueDepth: 4, ErrorBudgetPPM: 123_456}); err != nil {
		t.Fatal(err)
	}

	snap := obs.Default().Snapshot()
	checks := map[string]int64{
		"cluster_blocks":               7,
		"cluster_block_bytes":          700,
		"cluster_corrupt_serves":       3,
		"cluster_queue_depth":          4,
		"cluster_rpc_p99_ns":           55,
		"cluster_error_budget_min_ppm": 123_456,
	}
	for name, want := range checks {
		if got := snap.Gauges[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	var text strings.Builder
	if err := obs.WriteText(&text, snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "cluster_blocks 7") {
		t.Fatalf("/metrics text missing cluster rollup:\n%s", text.String())
	}
}

// TestControlTraceContext: a Place carrying a TraceContext must produce a
// master-side span in the master's tracer, parented under the caller's
// span — and a request without one must not.
func TestControlTraceContext(t *testing.T) {
	code := testCode(t)
	m, err := New(fastMasterConfig(code))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetObsAddr("m:9")

	c := NewClient(m.Addr(), nil)
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.Register(NodeInfo{Addr: string(rune('a'+i)) + ":1"}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, sp := obs.DefaultTracer().Start(context.Background(), "ctl.put")
	req := PlaceRequest{Name: "f", Size: 64, BlockSize: 16}
	req.TraceContext = TraceFromContext(ctx)
	if _, err := c.Place(req); err != nil {
		t.Fatal(err)
	}
	sp.End()

	spans := obs.DefaultTracer().Spans(sp.TraceID())
	var masterSpan *obs.SpanRecord
	for i := range spans {
		if spans[i].Name == "master.place" {
			masterSpan = &spans[i]
		}
	}
	if masterSpan == nil {
		t.Fatalf("no master.place span in trace %d: %v", sp.TraceID(), spans)
	}
	if masterSpan.Parent != sp.ID() {
		t.Fatalf("master.place parented under %d, want caller span %d", masterSpan.Parent, sp.ID())
	}
	if masterSpan.Attr("file") != "f" {
		t.Fatalf("master.place attrs = %v", masterSpan.Attrs)
	}

	// Untraced requests must record nothing new with trace 0.
	if _, err := c.Place(PlaceRequest{Name: "f"}); err != nil {
		t.Fatal(err)
	}
	for _, s := range obs.DefaultTracer().Recent(64) {
		if s.Name == "master.place" && s.Trace == 0 {
			t.Fatal("untraced place recorded a zero-trace span")
		}
	}

	// The status view advertises the scrape-target set for stitching.
	cs, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if cs.MasterObsAddr != "m:9" {
		t.Fatalf("MasterObsAddr = %q", cs.MasterObsAddr)
	}
	if got := cs.ObsAddrs(); len(got) != 1 || got[0] != "m:9" {
		t.Fatalf("ObsAddrs = %v", got)
	}
}
