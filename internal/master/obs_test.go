package master

import (
	"strings"
	"testing"
	"time"

	"carousel/internal/obs"
)

// TestBeatHealthRollup drives the memberSet directly with a fake clock:
// tx rates must derive from consecutive BytesTx samples, and the roll-up
// must aggregate every alive member's health, with or without an obs
// endpoint, and nothing of the dead.
func TestBeatHealthRollup(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	ms := newMemberSet(memberConfig{
		Interval: time.Second, MissLimit: 2, Grace: 5 * time.Second,
		RebuildHold: time.Second, FlapWindow: time.Minute,
	}, clock)

	// Two obs-enabled members and one daemon started without -obs-addr.
	ms.Beat(NodeInfo{Addr: "a:1", Blocks: 10, BlockBytes: 100, ObsAddr: "a:9", BytesTx: 1000, RPCP99NS: 40, QueueDepth: 3})
	ms.Beat(NodeInfo{Addr: "b:1", Blocks: 20, BlockBytes: 200, ObsAddr: "b:9", BytesTx: 5000, RPCP99NS: 70, QueueDepth: 1})
	ms.Beat(NodeInfo{Addr: "c:1", Blocks: 5, BlockBytes: 50, CorruptServes: 2, RPCP99NS: 90, QueueDepth: 4})

	// First beats carry no rate — no prior sample.
	if mem, _ := ms.Get("a:1"); mem.TxRateBps != 0 {
		t.Fatalf("first beat derived rate %d, want 0", mem.TxRateBps)
	}

	// Two seconds later a served 4000 more bytes, b went backwards
	// (restarted daemon).
	now = now.Add(2 * time.Second)
	ms.Beat(NodeInfo{Addr: "a:1", Blocks: 10, BlockBytes: 100, ObsAddr: "a:9", BytesTx: 5000, RPCP99NS: 60, QueueDepth: 2})
	ms.Beat(NodeInfo{Addr: "b:1", Blocks: 20, BlockBytes: 200, ObsAddr: "b:9", BytesTx: 100, RPCP99NS: 70, QueueDepth: 1})
	if mem, _ := ms.Get("a:1"); mem.TxRateBps != 2000 {
		t.Fatalf("a tx rate = %d, want 2000", mem.TxRateBps)
	}
	if mem, _ := ms.Get("b:1"); mem.TxRateBps != 0 {
		t.Fatalf("reset counter derived rate %d, want 0", mem.TxRateBps)
	}

	r := ms.Rollup()
	if r.Alive != 3 || r.Blocks != 35 || r.BlockBytes != 350 || r.CorruptServes != 2 {
		t.Fatalf("capacity rollup = %+v", r)
	}
	if r.QueueDepth != 7 || r.TxRateBps != 2000 {
		t.Fatalf("health rollup = %+v, want c's queue folded in", r)
	}
	if r.RPCP99NS != 90 {
		t.Fatalf("rollup p99 = %d, want the worst node's 90 (c, no obs endpoint)", r.RPCP99NS)
	}

	// A dead member drops out of the roll-up entirely.
	now = now.Add(time.Hour)
	ms.Tick()
	if r = ms.Rollup(); r != (Rollup{}) {
		t.Fatalf("rollup after death = %+v", r)
	}
}

// TestClusterRollupGauges: a master with beating members must export the
// cluster_* gauges on the default registry and carry the same roll-up in
// its status view. A member without an obs endpoint still counts: its
// measured p99 and queue depth are as real as anyone's.
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
	if _, err := c.Beat(NodeInfo{Addr: "n1:1", Blocks: 7, BlockBytes: 700, CorruptServes: 3, RPCP99NS: 55, QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Beat(NodeInfo{Addr: "n2:1", ObsAddr: "n2:9", RPCP99NS: 20}); err != nil {
		t.Fatal(err)
	}

	snap := obs.Default().Snapshot()
	checks := map[string]int64{
		"cluster_blocks":         7,
		"cluster_block_bytes":    700,
		"cluster_corrupt_serves": 3,
		"cluster_queue_depth":    4,
		"cluster_rpc_p99_ns":     55,
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

	cs, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	want := Rollup{Alive: 2, Blocks: 7, BlockBytes: 700, CorruptServes: 3, QueueDepth: 4, RPCP99NS: 55}
	if cs.Rollup != want {
		t.Fatalf("status rollup = %+v, want %+v", cs.Rollup, want)
	}
	// Trace discovery scrapes the members that advertise an endpoint.
	if got := cs.ObsAddrs(); len(got) != 1 || got[0] != "n2:9" {
		t.Fatalf("ObsAddrs = %v", got)
	}
}
