package blockserver

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"carousel/internal/cluster"
	"carousel/internal/dfs"
)

// TestOnePlanThreeExecutors feeds the same availability vectors to the
// three things that act on a read plan — carousel.PlanRead itself, the
// simulator's dfs.readCarousel, which charges its transfers to simulated
// links, and the live Store over loopback — and requires equal bytes
// fetched from every source. It is the acceptance test a shared
// stripe-operation planner (ROADMAP item 2) has to keep passing.
func TestOnePlanThreeExecutors(t *testing.T) {
	type vector struct {
		n, k, d, p int
		down       []int
	}
	vectors := []vector{
		{12, 6, 10, 10, nil},
		{12, 6, 10, 10, []int{10}},    // a spare
		{12, 6, 10, 10, []int{2, 5}},  // both spares used
		{12, 6, 10, 10, []int{1, 11}}, // one spare left for one loss
		{12, 6, 6, 6, []int{0}},       // the RS point, p = k
		{12, 6, 10, 6, []int{3}},      // the MSR point, p = k
		{12, 6, 10, 12, []int{4}},     // p = n: the patch
	}
	for lost := 0; lost < 10; lost++ { // each single data-bearing loss
		vectors = append(vectors, vector{12, 6, 10, 10, []int{lost}})
	}
	for _, v := range vectors {
		t.Run(fmt.Sprintf("(%d,%d,%d,%d) down %v", v.n, v.k, v.d, v.p, v.down), func(t *testing.T) {
			const stripes = 2
			pc := newPlannedCluster(t, v.n, v.k, v.d, v.p, stripes)
			want := pc.planBytes(t, v.down...) // PlanRead, per block, over the file

			// The simulator: one stripe, block i failed for every i down,
			// bytes read off each block's datanode.
			sim := cluster.NewSim()
			c := cluster.NewCluster(sim, v.n, cluster.NodeSpec{DiskReadBW: 1e6}) // finite, so transfers are metered
			client := c.AddNode("client", cluster.NodeSpec{})
			fs := dfs.New(c, c.Nodes()[:v.n])
			stripe := pc.data[:v.k*pc.blockSize]
			if _, err := fs.Write("f", stripe, pc.blockSize, dfs.Carousel{Code: pc.code}); err != nil {
				t.Fatal(err)
			}
			holder := make([]*cluster.Node, v.n)
			for b := range holder {
				holder[b] = c.Node(fs.BlockLocation("f", 0, b))
			}
			for _, i := range v.down {
				if err := fs.FailBlock("f", 0, i); err != nil {
					t.Fatal(err)
				}
			}
			var res *dfs.ReadResult
			var err error
			sim.Go("reader", func(p *cluster.Proc) { res, err = fs.Read(p, client, "f", dfs.ReadParallel) })
			sim.Run()
			if err != nil || !bytes.Equal(res.Data, stripe) {
				t.Fatalf("simulated read: err %v", err)
			}
			for b, node := range holder {
				got := int64(math.Round(node.DiskRead().BytesServed()))
				if got != want[b]/stripes {
					t.Errorf("dfs read %d bytes of block %d, PlanRead says %d", got, b, want[b]/stripes)
				}
			}

			// The live store, its peer memory warmed by one read.
			for _, i := range v.down {
				pc.servers[i].Close()
			}
			pc.read(t)
			dials := pc.store.pool.DialCounts()
			_, sent := pc.read(t)
			for b := range sent {
				if sent[b] != want[b] {
					t.Errorf("store fetched %d bytes from server %d, PlanRead says %d", sent[b], b, want[b])
				}
			}
			if d := dialsSince(pc.store.pool, dials); d != nil {
				t.Errorf("warm store read dialed %v", d)
			}
		})
	}
}
