package dfs

import (
	"bytes"
	"errors"
	"testing"

	"carousel/internal/cluster"
)

func TestRecoverNodeCarousel(t *testing.T) {
	code := mustCarousel(t, 12, 6, 10, 12)
	blockSize := code.BlockAlign() * code.Alpha() * 4
	rig := newRig(t, 14, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(2*6*blockSize, 41) // two stripes
	if _, err := rig.fs.Write("f", data, blockSize, Carousel{Code: code}); err != nil {
		t.Fatal(err)
	}
	// Kill a node: with 14 datanodes and 24 blocks, node 0 hosts blocks
	// from both stripes.
	rig.fs.FailNode(0)
	var res *RepairResult
	var err error
	rig.sim.Go("recover", func(p *cluster.Proc) {
		res, err = rig.fs.RecoverNode(p, 0)
	})
	rig.sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrafficBytes == 0 {
		t.Fatal("recovery moved no bytes")
	}
	// Every block must be reachable again and reads must be exact.
	rig.sim.Go("read", func(p *cluster.Proc) {
		out, rerr := rig.fs.Read(p, rig.client, "f", ReadParallel)
		if rerr != nil {
			t.Errorf("read after recovery: %v", rerr)
			return
		}
		if !bytes.Equal(out.Data, data) {
			t.Error("data mismatch after recovery")
		}
		if out.DecodeBytes != 0 {
			t.Errorf("read after recovery should be pure copy, decoded %d", out.DecodeBytes)
		}
	})
	rig.sim.Run()
	// Traffic should be the optimal 2 blocks per reconstructed block.
	f, _ := rig.fs.File("f")
	lost := 0
	for range f.stripes {
		lost++ // one block per stripe lived on node 0 with 14 nodes/12-wide stripes
	}
	if want := int64(lost * 2 * blockSize); res.TrafficBytes != want {
		t.Fatalf("recovery traffic = %d, want %d (2 blocks per loss)", res.TrafficBytes, want)
	}
}

func TestRecoverNodeReplication(t *testing.T) {
	rig := newRig(t, 5, cluster.NodeSpec{})
	data := randBytes(4000, 42)
	if _, err := rig.fs.Write("f", data, 1000, Replication{Copies: 1}); err != nil {
		t.Fatal(err)
	}
	rig.fs.FailNode(1)
	var err error
	rig.sim.Go("recover", func(p *cluster.Proc) {
		_, err = rig.fs.RecoverNode(p, 1)
	})
	rig.sim.Run()
	// Copies=1 leaves no survivor to copy from: recovery must fail.
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}

	// With 2 copies the data survives and recovery succeeds.
	rig2 := newRig(t, 5, cluster.NodeSpec{})
	if _, err := rig2.fs.Write("f", data, 1000, Replication{Copies: 2}); err != nil {
		t.Fatal(err)
	}
	rig2.fs.FailNode(1)
	rig2.sim.Go("recover", func(p *cluster.Proc) {
		if _, rerr := rig2.fs.RecoverNode(p, 1); rerr != nil {
			t.Errorf("recover: %v", rerr)
		}
	})
	rig2.sim.Run()
	res, _ := rig2.runRead(t, "f", ReadParallel)
	if !bytes.Equal(res.Data, data) {
		t.Fatal("replicated data mismatch after recovery")
	}
}

func TestFailReplica(t *testing.T) {
	rig := newRig(t, 6, cluster.NodeSpec{})
	data := randBytes(1000, 43)
	if _, err := rig.fs.Write("f", data, 1000, Replication{Copies: 3}); err != nil {
		t.Fatal(err)
	}
	if err := rig.fs.FailReplica("f", 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Two replicas left: read still succeeds.
	res, _ := rig.runRead(t, "f", ReadParallel)
	if !bytes.Equal(res.Data, data) {
		t.Fatal("read after replica loss mismatch")
	}
	if err := rig.fs.FailReplica("f", 0, 0, 5); err == nil {
		t.Fatal("out-of-range replica did not error")
	}
	if err := rig.fs.FailReplica("missing", 0, 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestReadRange(t *testing.T) {
	rig := newRig(t, 6, cluster.NodeSpec{})
	data := randBytes(5000, 44)
	if _, err := rig.fs.Write("f", data, 1000, Replication{Copies: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := rig.fs.ReadRange("f", 990, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[990:1010]) {
		t.Fatal("ReadRange crossing a block boundary mismatch")
	}
	// Clipped at EOF.
	got, err = rig.fs.ReadRange("f", 4990, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[4990:]) {
		t.Fatal("ReadRange at EOF mismatch")
	}
	// Past EOF returns nothing.
	got, err = rig.fs.ReadRange("f", 6000, 10)
	if err != nil || got != nil {
		t.Fatalf("past-EOF ReadRange = %v, %v", got, err)
	}
	if _, err := rig.fs.ReadRange("f", -1, 5); err == nil {
		t.Fatal("negative offset did not error")
	}
}

func TestMultiStripeRSFile(t *testing.T) {
	rig := newRig(t, 12, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	// Three stripes, last one partially filled.
	data := randBytes(6*1000*2+2500, 45)
	if _, err := rig.fs.Write("f", data, 1000, rsPoint(t, 12, 6)); err != nil {
		t.Fatal(err)
	}
	f, _ := rig.fs.File("f")
	if f.Stripes() != 3 {
		t.Fatalf("stripes = %d, want 3", f.Stripes())
	}
	// Fail one block in each stripe and read back.
	for s := 0; s < 3; s++ {
		if err := rig.fs.FailBlock("f", s, s); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := rig.runRead(t, "f", ReadParallel)
	if !bytes.Equal(res.Data, data) {
		t.Fatal("multi-stripe degraded read mismatch")
	}
}

// TestCarouselDecodeBWCharged verifies the degraded carousel read charges
// client decode time at the configured throughput.
func TestCarouselDecodeBWCharged(t *testing.T) {
	code := mustCarousel(t, 12, 6, 10, 10)
	blockSize := code.BlockAlign() * 100
	run := func(bw float64) float64 {
		rig := newRig(t, 12, cluster.NodeSpec{DiskReadBW: 100 * mbps})
		data := randBytes(6*blockSize, 95)
		if _, err := rig.fs.Write("f", data, blockSize, Carousel{Code: code}); err != nil {
			t.Fatal(err)
		}
		if bw > 0 {
			rig.fs.DecodeBW[Carousel{Code: code}.Name()] = bw
		}
		if err := rig.fs.FailBlock("f", 0, 2); err != nil {
			t.Fatal(err)
		}
		res, done := rig.runRead(t, "f", ReadParallel)
		if !bytes.Equal(res.Data, data) {
			t.Fatal("read mismatch")
		}
		return done
	}
	fast := run(0)
	slow := run(1000) // decode bytes / 1 KB/s adds substantial time
	if slow <= fast {
		t.Fatalf("decode time not charged: slow %g <= fast %g", slow, fast)
	}
}

// TestCarouselPatchPlanThroughDFS drives the p = n extended read through
// the DFS layer: one failure must keep total traffic at the original data
// size and stream the patch bytes from parity units.
func TestCarouselPatchPlanThroughDFS(t *testing.T) {
	code := mustCarousel(t, 12, 6, 10, 12)
	blockSize := code.BlockAlign() * 50
	rig := newRig(t, 12, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(6*blockSize, 96)
	if _, err := rig.fs.Write("f", data, blockSize, Carousel{Code: code}); err != nil {
		t.Fatal(err)
	}
	if err := rig.fs.FailBlock("f", 0, 3); err != nil {
		t.Fatal(err)
	}
	res, _ := rig.runRead(t, "f", ReadParallel)
	if !bytes.Equal(res.Data, data) {
		t.Fatal("patched read mismatch")
	}
	if res.BytesFetched != int64(len(data)) {
		t.Fatalf("BytesFetched = %d, want %d (the original size)", res.BytesFetched, len(data))
	}
	if res.DecodeBytes == 0 {
		t.Fatal("patched read should report decode work")
	}
}

// TestAccessorsAndDegradedCost covers the metadata accessors and the
// degraded-split cost computation at the dfs level.
func TestAccessorsAndDegradedCost(t *testing.T) {
	code := mustCarousel(t, 12, 6, 10, 12)
	blockSize := code.BlockAlign() * 20
	rig := newRig(t, 12, cluster.NodeSpec{})
	data := randBytes(6*blockSize, 97)
	f, err := rig.fs.Write("f", data, blockSize, Carousel{Code: code})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "f" || f.Size() != len(data) || f.BlockSize() != blockSize {
		t.Fatal("file accessor mismatch")
	}
	if f.Scheme().Name() != "carousel(12,6,10,12)" {
		t.Fatalf("scheme name %q", f.Scheme().Name())
	}
	if loc := rig.fs.BlockLocation("f", 0, 0); loc < 0 {
		t.Fatal("BlockLocation should find a replica")
	}
	if loc := rig.fs.BlockLocation("f", 9, 0); loc != -1 {
		t.Fatal("out-of-range stripe should return -1")
	}
	if loc := rig.fs.BlockLocation("missing", 0, 0); loc != -1 {
		t.Fatal("missing file should return -1")
	}
	if err := rig.fs.FailBlock("f", 0, 1); err != nil {
		t.Fatal(err)
	}
	if loc := rig.fs.BlockLocation("f", 0, 1); loc != -1 {
		t.Fatal("failed block should have no location")
	}
	splits, err := rig.fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	var deg *Split
	for i := range splits {
		if splits[i].Degraded {
			deg = &splits[i]
		}
	}
	if deg == nil {
		t.Fatal("no degraded split emitted")
	}
	dc, err := rig.fs.DegradedSplitCost(*deg)
	if err != nil {
		t.Fatal(err)
	}
	if dc.TotalBytes() != 6*deg.Length {
		t.Fatalf("degraded cost %d, want k*length %d", dc.TotalBytes(), 6*deg.Length)
	}
	if dc.DecodeBytes != deg.Length {
		t.Fatalf("decode bytes %d, want %d", dc.DecodeBytes, deg.Length)
	}
	// Replication name paths.
	if got := (Replication{Copies: 3}).Name(); got != "3x-replication" {
		t.Fatalf("replication name %q", got)
	}
	// The baseline is named by its parameters, like every other point:
	// this string is its scheme metric label and its DecodeBW key.
	if got := rsPoint(t, 12, 6).Name(); got != "carousel(12,6,6,6)" {
		t.Fatalf("rs point name %q", got)
	}
}

// TestRecoverNodeConcurrencySpeedsSimTime is the Fig. 11 model check: with
// bounded sim concurrency, node recovery overlaps reconstructions across
// stripes, so the simulated completion time drops well below the strictly
// sequential walk while traffic totals stay identical.
func TestRecoverNodeConcurrencySpeedsSimTime(t *testing.T) {
	run := func(conc int) (*RepairResult, float64) {
		code := mustCarousel(t, 12, 6, 10, 12)
		blockSize := code.BlockAlign() * code.Alpha() * 4
		// Fast helper reads, slow newcomer writes: repairs land on distinct
		// newcomers, so the writeback stage is what cross-stripe
		// parallelism can overlap (helper disks are shared by every
		// variant and bound both the same way).
		rig := newRig(t, 14, cluster.NodeSpec{DiskReadBW: 1000 * mbps, DiskWriteBW: 1 * mbps})
		data := randBytes(7*6*blockSize, 45) // seven stripes
		if _, err := rig.fs.Write("f", data, blockSize, Carousel{Code: code}); err != nil {
			t.Fatal(err)
		}
		rig.fs.FailNode(0)
		rig.fs.SetRecoverConcurrency(conc)
		var res *RepairResult
		var err error
		var done float64
		rig.sim.Go("recover", func(p *cluster.Proc) {
			res, err = rig.fs.RecoverNode(p, 0)
			done = p.Now()
		})
		rig.sim.Run()
		if err != nil {
			t.Fatalf("conc %d: %v", conc, err)
		}
		// Reads must be exact after either variant.
		rig.sim.Go("read", func(p *cluster.Proc) {
			out, rerr := rig.fs.Read(p, rig.client, "f", ReadParallel)
			if rerr != nil {
				t.Errorf("conc %d: read after recovery: %v", conc, rerr)
				return
			}
			if !bytes.Equal(out.Data, data) {
				t.Errorf("conc %d: data mismatch after recovery", conc)
			}
		})
		rig.sim.Run()
		return res, done
	}
	seqRes, seqTime := run(1)
	parRes, parTime := run(4)
	if seqRes.TrafficBytes != parRes.TrafficBytes {
		t.Fatalf("traffic differs: sequential %d, parallel %d", seqRes.TrafficBytes, parRes.TrafficBytes)
	}
	if seqRes.Helpers != parRes.Helpers {
		t.Fatalf("helper count differs: sequential %d, parallel %d", seqRes.Helpers, parRes.Helpers)
	}
	if parTime >= 0.75*seqTime {
		t.Fatalf("parallel recovery took %.3fs of simulated time vs sequential %.3fs — expected < 0.75x", parTime, seqTime)
	}
}
