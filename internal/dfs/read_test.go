package dfs

import (
	"bytes"
	"errors"
	"testing"

	"carousel/internal/cluster"
)

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

// TestReadDetectsCorruptionAndDecodesAround: read-time checksum
// verification must quarantine a corrupted block and serve the read
// degraded.
func TestReadDetectsCorruptionAndDecodesAround(t *testing.T) {
	code := mustCarousel(t, 12, 6, 10, 12)
	blockSize := code.BlockAlign() * code.Alpha() * 4
	rig := newRig(t, 13, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(6*blockSize, 63)
	if _, err := rig.fs.Write("f", data, blockSize, Carousel{Code: code}); err != nil {
		t.Fatal(err)
	}
	if err := rig.fs.CorruptBlock("f", 0, 2, 5); err != nil {
		t.Fatal(err)
	}
	rig.sim.Go("read", func(p *cluster.Proc) {
		res, err := rig.fs.Read(p, rig.client, "f", ReadParallel)
		if err != nil {
			t.Errorf("read with corrupt block: %v", err)
			return
		}
		if !bytes.Equal(res.Data, data) {
			t.Error("read served corrupted data")
		}
	})
	rig.sim.Run()
	if got := rig.fs.Stats().CorruptDetected; got != 1 {
		t.Fatalf("CorruptDetected = %d, want 1", got)
	}
	if loc := rig.fs.BlockLocation("f", 0, 2); loc != -1 {
		t.Fatalf("corrupt block still has location %d, want quarantined", loc)
	}
}

// TestCorruptLastCopySurfacesTypedError: when corruption removes the only
// copy, the read fails with an error naming both the corruption and the
// unavailability, checkable with errors.Is.
func TestCorruptLastCopySurfacesTypedError(t *testing.T) {
	rig := newRig(t, 4, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(1000, 65)
	if _, err := rig.fs.Write("f", data, 500, Replication{Copies: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rig.fs.CorruptBlock("f", 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	rig.sim.Go("read", func(p *cluster.Proc) {
		_, err := rig.fs.Read(p, rig.client, "f", ReadParallel)
		if !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrUnavailable) {
			t.Errorf("read of corrupt sole copy: %v, want ErrCorrupt and ErrUnavailable", err)
		}
	})
	rig.sim.Run()
}

func TestCorruptBlockValidation(t *testing.T) {
	rig := newRig(t, 4, cluster.NodeSpec{})
	if _, err := rig.fs.Write("f", randBytes(100, 62), 100, Replication{Copies: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct{ s, b, off int }{
		{5, 0, 0}, {0, 3, 0}, {0, 0, 1000}, {0, 0, -1},
	} {
		if err := rig.fs.CorruptBlock("f", tt.s, tt.b, tt.off); err == nil {
			t.Errorf("CorruptBlock(%d,%d,%d) did not error", tt.s, tt.b, tt.off)
		}
	}
	if err := rig.fs.CorruptBlock("missing", 0, 0, 0); err == nil {
		t.Error("missing file did not error")
	}
}
