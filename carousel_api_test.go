package carousel_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"carousel"
	"carousel/internal/workload"
)

// TestFacadeEndToEnd drives the public API the way the README quickstart
// does: split, encode, lose blocks, parallel-read, repair.
func TestFacadeEndToEnd(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	original := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(original)

	shards, _, err := carousel.Split(original, code.K(), code.BlockAlign())
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := code.Encode(shards)
	if err != nil {
		t.Fatal(err)
	}
	// Lose the failure-tolerance budget's worth of blocks.
	lost := []int{1, 4, 7, 9, 10, 11}
	avail := make([][]byte, len(blocks))
	copy(avail, blocks)
	for _, i := range lost {
		avail[i] = nil
	}
	data, err := code.ParallelRead(avail)
	if err != nil {
		t.Fatal(err)
	}
	got, err := carousel.Join(splitUnits(data, code.K()), len(original))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, original) {
		t.Fatal("round trip mismatch")
	}

	// Repair one lost block from d helpers.
	helpers := []int{0, 2, 3, 5, 6, 8, 9, 10, 11, 4}
	full := make([][]byte, len(blocks))
	copy(full, blocks)
	repaired, err := code.Repair(1, helpers, full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, blocks[1]) {
		t.Fatal("repair mismatch")
	}
}

// splitUnits reslices a contiguous buffer into k equal shards.
func splitUnits(data []byte, k int) [][]byte {
	per := len(data) / k
	out := make([][]byte, k)
	for i := range out {
		out[i] = data[i*per : (i+1)*per]
	}
	return out
}

func TestFacadeBaselines(t *testing.T) {
	rs, err := carousel.NewReedSolomon(9, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rs.N() != 9 || rs.K() != 6 {
		t.Fatal("RS accessor mismatch")
	}
	m, err := carousel.NewMSR(12, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha() != 5 {
		t.Fatal("MSR alpha mismatch")
	}
}

// TestFacadeSimulation runs a miniature Fig. 9-style comparison through
// the public simulation API.
func TestFacadeSimulation(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := 64 * code.BlockAlign()
	data := workload.Text(6*blockSize, 7)

	sim := carousel.NewSim()
	cl := carousel.NewCluster(sim, 30, carousel.NodeSpec{
		DiskReadBW: 4e6, DiskWriteBW: 4e6, NetInBW: 1e7, NetOutBW: 1e7,
		Slots: 2, ComputeBW: 2e6,
	})
	fs := carousel.NewFS(cl, cl.Nodes())
	if _, err := fs.Write("text", data, blockSize, carousel.SchemeCarousel{Code: code}); err != nil {
		t.Fatal(err)
	}
	eng := carousel.NewMapReduce(cl, fs, cl.Nodes(), carousel.MRCostSpec{TaskOverhead: 0.1, MapCPUFactor: 1, ReduceCPUFactor: 1})
	res, err := eng.Run(carousel.WordCountJob("text", 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks != 12 {
		t.Fatalf("map tasks = %d, want p=12", res.MapTasks)
	}
	if res.JobSeconds <= 0 {
		t.Fatal("job took no simulated time")
	}
}

func TestFacadeLRC(t *testing.T) {
	l, err := carousel.NewLRC(6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 32)
		rand.New(rand.NewSource(int64(i))).Read(data[i])
	}
	lb, err := l.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	work := make([][]byte, len(lb))
	copy(work, lb)
	work[1] = nil
	rep, err := l.Repair(1, work)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep, lb[1]) {
		t.Fatal("LRC repair mismatch")
	}
}

func TestFacadeBlockServerAndGrep(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	srv := carousel.NewBlockServer(code)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := carousel.DialBlockServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Put(ctx, "x", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "x")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := carousel.NewBlockStore(code, make([]string, 12), code.BlockAlign()); err != nil {
		t.Fatal(err)
	}

	// Grep job through the facade simulation stack.
	sim := carousel.NewSim()
	cl := carousel.NewCluster(sim, 6, carousel.NodeSpec{})
	fs := carousel.NewFS(cl, cl.Nodes())
	if _, err := fs.Write("t", []byte("alpha beta\ngamma alpha\n"), 12, carousel.SchemeReplication{Copies: 1}); err != nil {
		t.Fatal(err)
	}
	eng := carousel.NewMapReduce(cl, fs, cl.Nodes(), carousel.MRCostSpec{})
	res, err := eng.Run(carousel.GrepJob("t", "alpha", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 2 {
		t.Fatalf("grep matched %d lines, want 2", len(res.Output))
	}
}
