package dfs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"carousel/internal/carousel"
	"carousel/internal/cluster"
	"carousel/internal/reedsolomon"
)

const mbps = 1e6 / 8 // 1 Mbps in bytes/second

// testRig wires a small simulated cluster with an FS.
type testRig struct {
	sim    *cluster.Sim
	fs     *FS
	client *cluster.Node
}

func newRig(t *testing.T, datanodes int, spec cluster.NodeSpec) *testRig {
	t.Helper()
	sim := cluster.NewSim()
	c := cluster.NewCluster(sim, datanodes, spec)
	client := c.AddNode("client", cluster.NodeSpec{})
	return &testRig{sim: sim, fs: New(c, c.Nodes()[:datanodes]), client: client}
}

// runRead performs a read inside the simulation and returns the result and
// the simulated completion time.
func (r *testRig) runRead(t *testing.T, name string, mode ReadMode) (*ReadResult, float64) {
	t.Helper()
	var res *ReadResult
	var err error
	var done float64
	r.sim.Go("reader", func(p *cluster.Proc) {
		res, err = r.fs.Read(p, r.client, name, mode)
		done = p.Now()
	})
	r.sim.Run()
	if err != nil {
		t.Fatalf("Read(%s): %v", name, err)
	}
	return res, done
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func mustRS(t *testing.T, n, k int) *reedsolomon.Code {
	t.Helper()
	c, err := reedsolomon.New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rsPoint is the (n, k) Reed-Solomon baseline as the simulator stores it:
// the Carousel code at d = k, p = k. mustRS stays as the reference encoder.
func rsPoint(t *testing.T, n, k int) Carousel {
	t.Helper()
	return Carousel{Code: mustCarousel(t, n, k, k, k)}
}

func mustCarousel(t *testing.T, n, k, d, p int) *carousel.Code {
	t.Helper()
	c, err := carousel.New(n, k, d, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWriteAndReadReplicated(t *testing.T) {
	rig := newRig(t, 6, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(4000, 1)
	if _, err := rig.fs.Write("f", data, 1000, Replication{Copies: 3}); err != nil {
		t.Fatal(err)
	}
	res, _ := rig.runRead(t, "f", ReadParallel)
	if !bytes.Equal(res.Data, data) {
		t.Fatal("replicated read mismatch")
	}
	if res.Parallelism != 4 {
		t.Fatalf("parallelism = %d, want 4 blocks", res.Parallelism)
	}
}

func TestSequentialSlowerThanParallel(t *testing.T) {
	mk := func(mode ReadMode) float64 {
		rig := newRig(t, 6, cluster.NodeSpec{DiskReadBW: 10 * mbps})
		data := randBytes(6_000_000, 2)
		if _, err := rig.fs.Write("f", data, 1_000_000, Replication{Copies: 3}); err != nil {
			t.Fatal(err)
		}
		_, done := mk2(t, rig, mode)
		return done
	}
	seq := mk(ReadSequential)
	par := mk(ReadParallel)
	if par >= seq {
		t.Fatalf("parallel (%gs) not faster than sequential (%gs)", par, seq)
	}
	// Six blocks from six distinct nodes: parallel should be ~6x faster.
	if ratio := seq / par; ratio < 4 {
		t.Fatalf("speedup %g, want >= 4", ratio)
	}
}

func mk2(t *testing.T, rig *testRig, mode ReadMode) (*ReadResult, float64) {
	t.Helper()
	return rig.runRead(t, "f", mode)
}

func TestWriteValidation(t *testing.T) {
	rig := newRig(t, 4, cluster.NodeSpec{})
	if _, err := rig.fs.Write("x", nil, 100, Replication{Copies: 1}); err == nil {
		t.Error("empty write did not error")
	}
	if _, err := rig.fs.Write("x", []byte{1}, 0, Replication{Copies: 1}); err == nil {
		t.Error("zero block size did not error")
	}
	if _, err := rig.fs.Write("x", []byte{1}, 100, Replication{Copies: 0}); err == nil {
		t.Error("zero copies did not error")
	}
	if _, err := rig.fs.Write("x", []byte{1}, 100, Replication{Copies: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.fs.Write("x", []byte{1}, 100, Replication{Copies: 1}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate write: %v", err)
	}
	if _, err := rig.fs.File("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing file: %v", err)
	}
	// Too many blocks for the cluster.
	if _, err := rig.fs.Write("y", []byte{1}, 1, rsPoint(t, 6, 4)); err == nil {
		t.Error("stripe wider than cluster did not error")
	}
	// The zero-value scheme names no code: refused before any layout.
	if _, err := rig.fs.Write("z", []byte{1}, 100, Carousel{}); err == nil {
		t.Error("carousel scheme with no code did not error")
	}
	if _, err := rig.fs.File("z"); !errors.Is(err, ErrNotFound) {
		t.Errorf("refused write left a file behind: %v", err)
	}
}

func TestReadRS(t *testing.T) {
	rig := newRig(t, 12, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(6*1000, 3)
	if _, err := rig.fs.Write("f", data, 1000, rsPoint(t, 12, 6)); err != nil {
		t.Fatal(err)
	}
	res, _ := rig.runRead(t, "f", ReadParallel)
	if !bytes.Equal(res.Data, data) {
		t.Fatal("RS read mismatch")
	}
	if res.Parallelism != 6 {
		t.Fatalf("parallelism = %d, want k=6", res.Parallelism)
	}
	if res.DecodeBytes != 0 {
		t.Fatalf("no-failure read should not decode, got %d bytes", res.DecodeBytes)
	}
}

func TestReadRSDegraded(t *testing.T) {
	rig := newRig(t, 12, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(6*1000, 4)
	if _, err := rig.fs.Write("f", data, 1000, rsPoint(t, 12, 6)); err != nil {
		t.Fatal(err)
	}
	if err := rig.fs.FailBlock("f", 0, 2); err != nil {
		t.Fatal(err)
	}
	res, _ := rig.runRead(t, "f", ReadParallel)
	if !bytes.Equal(res.Data, data) {
		t.Fatal("degraded RS read mismatch")
	}
	if res.DecodeBytes != 1000 {
		t.Fatalf("DecodeBytes = %d, want 1000 (one block)", res.DecodeBytes)
	}
}

func TestReadCarousel(t *testing.T) {
	code := mustCarousel(t, 12, 6, 10, 10)
	blockSize := code.BlockAlign() * 100
	rig := newRig(t, 12, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(6*blockSize, 5)
	if _, err := rig.fs.Write("f", data, blockSize, Carousel{Code: code}); err != nil {
		t.Fatal(err)
	}
	res, _ := rig.runRead(t, "f", ReadParallel)
	if !bytes.Equal(res.Data, data) {
		t.Fatal("carousel read mismatch")
	}
	if res.Parallelism != 10 {
		t.Fatalf("parallelism = %d, want p=10", res.Parallelism)
	}
	// Total fetched equals the original data: p sources, 1/p each.
	if res.BytesFetched != int64(len(data)) {
		t.Fatalf("BytesFetched = %d, want %d", res.BytesFetched, len(data))
	}
}

func TestReadCarouselWithFailure(t *testing.T) {
	code := mustCarousel(t, 12, 6, 10, 10)
	blockSize := code.BlockAlign() * 100
	rig := newRig(t, 12, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(6*blockSize, 6)
	if _, err := rig.fs.Write("f", data, blockSize, Carousel{Code: code}); err != nil {
		t.Fatal(err)
	}
	if err := rig.fs.FailBlock("f", 0, 4); err != nil {
		t.Fatal(err)
	}
	res, _ := rig.runRead(t, "f", ReadParallel)
	if !bytes.Equal(res.Data, data) {
		t.Fatal("carousel degraded read mismatch")
	}
	if res.Parallelism != 10 {
		t.Fatalf("parallelism = %d, want 10 (replacement keeps sources)", res.Parallelism)
	}
	if res.DecodeBytes == 0 {
		t.Fatal("replacement read should charge decode work")
	}
}

func TestCarouselFasterThanRSOnCappedDisks(t *testing.T) {
	// Fig. 11 shape: with per-datanode read caps and an unconstrained
	// client, p=10 sources at 1/10 of the data each beat k=6 sources at
	// 1/6 each.
	read := func(scheme Scheme, blockSize, size int) float64 {
		rig := newRig(t, 12, cluster.NodeSpec{DiskReadBW: 300 * mbps})
		data := randBytes(size, 7)
		if _, err := rig.fs.Write("f", data, blockSize, scheme); err != nil {
			t.Fatal(err)
		}
		res, done := rig.runRead(t, "f", ReadParallel)
		if !bytes.Equal(res.Data, data) {
			t.Fatal("read mismatch")
		}
		return done
	}
	code := mustCarousel(t, 12, 6, 10, 10)
	blockSize := 3_000_000
	if blockSize%code.BlockAlign() != 0 {
		blockSize -= blockSize % code.BlockAlign()
	}
	size := 6 * blockSize
	tCar := read(Carousel{Code: code}, blockSize, size)
	tRS := read(rsPoint(t, 12, 6), blockSize, size)
	if tCar >= tRS {
		t.Fatalf("carousel (%gs) not faster than RS (%gs)", tCar, tRS)
	}
	// Ideal ratio is 6/10; allow slack.
	if ratio := tCar / tRS; ratio > 0.75 {
		t.Fatalf("carousel/RS time ratio %g, want <= 0.75", ratio)
	}
}

func TestReconstructReplication(t *testing.T) {
	rig := newRig(t, 6, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(1000, 8)
	if _, err := rig.fs.Write("f", data, 1000, Replication{Copies: 2}); err != nil {
		t.Fatal(err)
	}
	var res *RepairResult
	var err error
	rig.sim.Go("repair", func(p *cluster.Proc) {
		res, err = rig.fs.Reconstruct(p, "f", 0, 0, rig.fs.Datanodes()[5])
	})
	rig.sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrafficBytes != 1000 || res.Helpers != 1 {
		t.Fatalf("replication repair: traffic %d helpers %d", res.TrafficBytes, res.Helpers)
	}
}

func TestReconstructTrafficRSvsCarousel(t *testing.T) {
	// Fig. 7: RS moves k blocks; Carousel (d=2k-2 here) moves d/(d-k+1)
	// blocks = 2 blocks.
	repair := func(scheme Scheme, blockSize int) *RepairResult {
		rig := newRig(t, 13, cluster.NodeSpec{DiskReadBW: 100 * mbps})
		data := randBytes(6*blockSize, 9)
		if _, err := rig.fs.Write("f", data, blockSize, scheme); err != nil {
			t.Fatal(err)
		}
		if err := rig.fs.FailBlock("f", 0, 1); err != nil {
			t.Fatal(err)
		}
		var res *RepairResult
		var err error
		rig.sim.Go("repair", func(p *cluster.Proc) {
			res, err = rig.fs.Reconstruct(p, "f", 0, 1, rig.fs.Datanodes()[12])
		})
		rig.sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	car := mustCarousel(t, 12, 6, 10, 12)
	blockSize := car.BlockAlign() * car.Alpha() * 20
	resCar := repair(Carousel{Code: car}, blockSize)
	if want := int64(2 * blockSize); resCar.TrafficBytes != want {
		t.Fatalf("carousel repair traffic = %d, want %d", resCar.TrafficBytes, want)
	}
	resRS := repair(rsPoint(t, 12, 6), blockSize)
	if want := int64(6 * blockSize); resRS.TrafficBytes != want {
		t.Fatalf("RS repair traffic = %d, want %d", resRS.TrafficBytes, want)
	}
}

func TestReconstructedBlockServesReads(t *testing.T) {
	code := mustCarousel(t, 12, 6, 10, 12)
	blockSize := code.BlockAlign() * code.Alpha() * 4
	rig := newRig(t, 13, cluster.NodeSpec{DiskReadBW: 100 * mbps})
	data := randBytes(6*blockSize, 10)
	if _, err := rig.fs.Write("f", data, blockSize, Carousel{Code: code}); err != nil {
		t.Fatal(err)
	}
	if err := rig.fs.FailBlock("f", 0, 3); err != nil {
		t.Fatal(err)
	}
	rig.sim.Go("repair-then-read", func(p *cluster.Proc) {
		if _, err := rig.fs.Reconstruct(p, "f", 0, 3, rig.fs.Datanodes()[12]); err != nil {
			t.Errorf("reconstruct: %v", err)
			return
		}
		res, err := rig.fs.Read(p, rig.client, "f", ReadParallel)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(res.Data, data) {
			t.Error("read after reconstruction mismatch")
		}
		if res.DecodeBytes != 0 {
			t.Errorf("read after reconstruction should be pure copy, decoded %d", res.DecodeBytes)
		}
	})
	rig.sim.Run()
}

func TestFailNode(t *testing.T) {
	rig := newRig(t, 6, cluster.NodeSpec{})
	data := randBytes(3000, 11)
	if _, err := rig.fs.Write("f", data, 1000, Replication{Copies: 2}); err != nil {
		t.Fatal(err)
	}
	rig.fs.FailNode(0)
	f, _ := rig.fs.File("f")
	for _, st := range f.stripes {
		for _, l := range st.blocks[0].locations {
			if l == 0 {
				t.Fatal("node 0 still listed after FailNode")
			}
		}
	}
}

func TestSplitsReplication(t *testing.T) {
	rig := newRig(t, 6, cluster.NodeSpec{})
	data := randBytes(2000, 12)
	if _, err := rig.fs.Write("f", data, 1000, Replication{Copies: 2}); err != nil {
		t.Fatal(err)
	}
	splits, err := rig.fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	// 2 blocks x 2 copies = 4 splits of 500 bytes.
	if len(splits) != 4 {
		t.Fatalf("got %d splits, want 4", len(splits))
	}
	var got []byte
	total := 0
	for _, s := range splits {
		if s.Length != 500 {
			t.Fatalf("split length %d, want 500", s.Length)
		}
		if len(s.Nodes) != 2 {
			t.Fatalf("split candidates %v, want 2 replicas", s.Nodes)
		}
		d, err := rig.fs.SplitData(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d, data[s.Offset:s.Offset+s.Length]) {
			t.Fatalf("split %+v data mismatch", s)
		}
		total += s.Length
		got = append(got, d...)
	}
	if total != len(data) {
		t.Fatalf("splits cover %d bytes, want %d", total, len(data))
	}
	_ = got
}

func TestSplitsCoverFileExactly(t *testing.T) {
	code := mustCarousel(t, 12, 6, 10, 12)
	blockSize := code.BlockAlign() * 50
	for _, tc := range []struct {
		name   string
		scheme Scheme
		want   int // expected split count
	}{
		{"rs", rsPoint(t, 12, 6), 6},
		{"carousel", Carousel{Code: code}, 12},
	} {
		rig := newRig(t, 12, cluster.NodeSpec{})
		data := randBytes(6*blockSize, 13)
		if _, err := rig.fs.Write("f", data, blockSize, tc.scheme); err != nil {
			t.Fatal(err)
		}
		splits, err := rig.fs.Splits("f")
		if err != nil {
			t.Fatal(err)
		}
		if len(splits) != tc.want {
			t.Fatalf("%s: %d splits, want %d", tc.name, len(splits), tc.want)
		}
		covered := make([]bool, len(data))
		for _, s := range splits {
			d, err := rig.fs.SplitData(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d, data[s.Offset:s.Offset+s.Length]) {
				t.Fatalf("%s: split %+v data mismatch", tc.name, s)
			}
			for i := s.Offset; i < s.Offset+s.Length; i++ {
				if covered[i] {
					t.Fatalf("%s: byte %d covered twice", tc.name, i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("%s: byte %d not covered", tc.name, i)
			}
		}
	}
}

func TestDecodeBWChargesTime(t *testing.T) {
	// Identical degraded reads, one with free decode and one with a slow
	// decoder: the slow one must take longer.
	run := func(bw float64) float64 {
		rig := newRig(t, 12, cluster.NodeSpec{DiskReadBW: 100 * mbps})
		scheme := rsPoint(t, 12, 6)
		data := randBytes(6*100_000, 14)
		if _, err := rig.fs.Write("f", data, 100_000, scheme); err != nil {
			t.Fatal(err)
		}
		if bw > 0 {
			rig.fs.DecodeBW[scheme.Name()] = bw
		}
		if err := rig.fs.FailBlock("f", 0, 0); err != nil {
			t.Fatal(err)
		}
		_, done := rig.runRead(t, "f", ReadParallel)
		return done
	}
	fast := run(0)
	slow := run(10_000) // 100 KB to decode at 10 KB/s = 10 s extra
	if slow <= fast+9 {
		t.Fatalf("slow decode %gs, fast %gs: decode time not charged", slow, fast)
	}
}

func TestStatsAccumulate(t *testing.T) {
	rig := newRig(t, 6, cluster.NodeSpec{})
	data := randBytes(1000, 15)
	if _, err := rig.fs.Write("f", data, 1000, Replication{Copies: 2}); err != nil {
		t.Fatal(err)
	}
	rig.runRead(t, "f", ReadParallel)
	if rig.fs.Stats().BytesRead == 0 {
		t.Fatal("BytesRead not accumulated")
	}
}
