package dfs

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"carousel/internal/cluster"
	"carousel/internal/obs"
)

// readNumbers is what one simulated file read reports.
type readNumbers struct {
	Parallelism  int
	BytesFetched int64
	DecodeBytes  int64
	Seconds      float64
}

// baselineNumbers is everything the simulator reports about one (12,6)
// baseline file: 100 kB blocks, 850 kB of data (one full stripe and a
// 2.5-block tail) on 13 datanodes whose disks, NICs and decoder are all
// finite, so every stage of a read and a repair shows in the seconds.
type baselineNumbers struct {
	Splits        []Split
	Healthy       readNumbers
	OneLost       readNumbers // stripe 0 block 0 unavailable
	RepairTraffic int64
	RepairHelpers int
	RepairSeconds float64
	CostSources   map[int]int // DegradedSplitCost of the lost block's split
	CostDecode    int
}

// toNanos rounds simulated seconds to the nanosecond, so the pinned
// literals compare exactly whatever the last bit of the flow arithmetic.
func toNanos(seconds float64) float64 { return math.Round(seconds*1e9) / 1e9 }

func simulateBaseline(t *testing.T, scheme Scheme) baselineNumbers {
	t.Helper()
	const blockSize = 100_000
	spec := cluster.NodeSpec{DiskReadBW: 100 * mbps, DiskWriteBW: 80 * mbps, NetInBW: 400 * mbps, NetOutBW: 1000 * mbps}
	data := randBytes(6*blockSize+250_000, 77)
	var out baselineNumbers

	fresh := func(lose bool) *testRig {
		rig := newRig(t, 13, spec)
		rig.fs.DecodeBW[scheme.Name()] = 2e6
		if _, err := rig.fs.Write("f", data, blockSize, scheme); err != nil {
			t.Fatal(err)
		}
		if lose {
			if err := rig.fs.FailBlock("f", 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return rig
	}
	read := func(rig *testRig) readNumbers {
		res, done := rig.runRead(t, "f", ReadParallel)
		if !bytes.Equal(res.Data, data) {
			t.Fatal("read mismatch")
		}
		return readNumbers{res.Parallelism, res.BytesFetched, res.DecodeBytes, toNanos(done)}
	}

	rig := fresh(false)
	splits, err := rig.fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	out.Splits = splits
	out.Healthy = read(rig)
	out.OneLost = read(fresh(true))

	rig = fresh(true)
	degraded, err := rig.fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	if !degraded[0].Degraded {
		t.Fatal("the lost block's split is not marked degraded")
	}
	dc, err := rig.fs.DegradedSplitCost(degraded[0])
	if err != nil {
		t.Fatal(err)
	}
	out.CostSources, out.CostDecode = dc.Sources, dc.DecodeBytes
	var res *RepairResult
	rig.sim.Go("repair", func(p *cluster.Proc) {
		res, err = rig.fs.Reconstruct(p, "f", 0, 0, rig.fs.Datanodes()[12])
		out.RepairSeconds = toNanos(p.Now())
	})
	rig.sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	out.RepairTraffic, out.RepairHelpers = res.TrafficBytes, res.Helpers
	return out
}

// TestBaselinePointMatchesTheDeletedRSScheme pins the simulator's
// Reed-Solomon numbers. The literals were captured at commit 8594fcf, the
// last one with a separate (12,6) RS scheme (its own Write, readRS,
// Reconstruct, Splits, DegradedSplitCost and SplitData branches); the
// (12,6,6,6) point of the one coded scheme must keep producing them — in
// particular the 0.072 s repair: 12 ms streaming six blocks into the
// newcomer's NIC, 50 ms decode, 10 ms write, with no store-and-forward at
// the helpers.
func TestBaselinePointMatchesTheDeletedRSScheme(t *testing.T) {
	split := func(stripe, block, node, offset, length int) Split {
		return Split{File: "f", Stripe: stripe, Block: block, Nodes: []int{node}, Offset: offset, Length: length}
	}
	want := baselineNumbers{
		Splits: []Split{
			split(0, 0, 0, 0, 100_000),
			split(0, 1, 1, 100_000, 100_000),
			split(0, 2, 2, 200_000, 100_000),
			split(0, 3, 3, 300_000, 100_000),
			split(0, 4, 4, 400_000, 100_000),
			split(0, 5, 5, 500_000, 100_000),
			split(1, 0, 12, 600_000, 100_000),
			split(1, 1, 0, 700_000, 100_000),
			split(1, 2, 1, 800_000, 50_000),
		},
		Healthy:       readNumbers{Parallelism: 6, BytesFetched: 1_200_000, DecodeBytes: 0, Seconds: 0.016},
		OneLost:       readNumbers{Parallelism: 6, BytesFetched: 1_200_000, DecodeBytes: 100_000, Seconds: 0.066},
		RepairTraffic: 600_000,
		RepairHelpers: 6,
		RepairSeconds: 0.072,
		CostSources:   map[int]int{1: 100_000, 2: 100_000, 3: 100_000, 4: 100_000, 5: 100_000, 6: 100_000},
		CostDecode:    100_000,
	}
	got := simulateBaseline(t, rsPoint(t, 12, 6))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the (12,6,6,6) point reports\n%+v\nthe RS scheme reported\n%+v", got, want)
	}
}

// TestDegradedTailSplitCostsItsLength records the one number that moved
// when the RS scheme went: it charged a degraded split k whole blocks even
// when the split was a short tail. A linear code decodes byte-wise, so the
// first Length bytes of k blocks rebuild it, which is what the coded branch
// has always charged at p > k.
func TestDegradedTailSplitCostsItsLength(t *testing.T) {
	rig := newRig(t, 13, cluster.NodeSpec{})
	if _, err := rig.fs.Write("f", randBytes(850_000, 78), 100_000, rsPoint(t, 12, 6)); err != nil {
		t.Fatal(err)
	}
	if err := rig.fs.FailBlock("f", 1, 2); err != nil {
		t.Fatal(err)
	}
	splits, err := rig.fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	tail := splits[len(splits)-1]
	if !tail.Degraded || tail.Length != 50_000 {
		t.Fatalf("tail split %+v, want a degraded 50 kB split", tail)
	}
	dc, err := rig.fs.DegradedSplitCost(tail)
	if err != nil {
		t.Fatal(err)
	}
	if dc.TotalBytes() != 6*50_000 || dc.DecodeBytes != 50_000 {
		t.Fatalf("tail split costs %d bytes and %d decoded, want k*length = 300000 and 50000", dc.TotalBytes(), dc.DecodeBytes)
	}
}

// TestReplicaRebuildIsAccounted: a replica rebuild moves one block between
// datanodes, and that has to reach the same books a coded repair's traffic
// does.
func TestReplicaRebuildIsAccounted(t *testing.T) {
	const blockSize = 1000
	scheme := Replication{Copies: 3}
	repairs := obs.Default().Counter("dfs_repairs_total", "scheme", scheme.Name())
	before := [3]int64{repairs.Value(), mRepairTraffic.Value(), mRepairHelpers.Value()}

	rig := newRig(t, 6, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	if _, err := rig.fs.Write("f", randBytes(blockSize, 79), blockSize, scheme); err != nil {
		t.Fatal(err)
	}
	if err := rig.fs.FailReplica("f", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	var err error
	rig.sim.Go("repair", func(p *cluster.Proc) {
		_, err = rig.fs.Reconstruct(p, "f", 0, 0, rig.fs.Datanodes()[5])
	})
	rig.sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.fs.Stats().BytesRepair; got != blockSize {
		t.Errorf("Stats().BytesRepair = %d after rebuilding one replica, want %d", got, blockSize)
	}
	after := [3]int64{repairs.Value(), mRepairTraffic.Value(), mRepairHelpers.Value()}
	if want := [3]int64{before[0] + 1, before[1] + blockSize, before[2] + 1}; after != want {
		t.Errorf("repairs/traffic/helpers counters went %v -> %v, want %v", before, after, want)
	}
}
