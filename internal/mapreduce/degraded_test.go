package mapreduce

import (
	"fmt"
	"strings"
	"testing"

	"carousel/internal/cluster"
	"carousel/internal/dfs"
	"carousel/internal/workload"
)

// TestDegradedSplitStillCountsAllWords verifies a job over a file with a
// lost block produces exactly the same output as a healthy run, for every
// scheme, and that the degraded run takes longer.
func TestDegradedSplitStillCountsAllWords(t *testing.T) {
	car := mustCarousel(t, 12, 6, 10, 12)
	blockSize := 40 * car.BlockAlign() * 64
	data := workload.Text(6*blockSize, 71)
	run := func(s dfs.Scheme, fail bool) (*Result, float64) {
		sim := cluster.NewSim()
		c := cluster.NewCluster(sim, 30, cluster.NodeSpec{
			DiskReadBW: 4 * mb, DiskWriteBW: 4 * mb,
			NetInBW: 16 * mb, NetOutBW: 16 * mb,
			Slots: 2, ComputeBW: 2 * mb,
		})
		fs := dfs.New(c, c.Nodes())
		if _, err := fs.Write("f", data, blockSize, s); err != nil {
			t.Fatal(err)
		}
		if fail {
			if _, isRepl := s.(dfs.Replication); isRepl {
				// Losing one machine's copy; the other replica survives.
				if err := fs.FailReplica("f", 0, 0, 0); err != nil {
					t.Fatal(err)
				}
			} else if err := fs.FailBlock("f", 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		eng := NewEngine(c, fs, c.Nodes(), CostSpec{TaskOverhead: 0.5, MapCPUFactor: 1, ReduceCPUFactor: 1})
		res, err := eng.Run(WordCountJob("f", 2))
		if err != nil {
			t.Fatal(err)
		}
		return res, res.JobSeconds
	}
	render := func(res *Result) string {
		var sb strings.Builder
		for _, kv := range res.Output {
			fmt.Fprintf(&sb, "%s=%s;", kv.Key, kv.Value)
		}
		return sb.String()
	}
	for _, s := range []dfs.Scheme{
		rsPoint(t, 12, 6),
		dfs.Carousel{Code: car},
		dfs.Replication{Copies: 2},
	} {
		healthy, tHealthy := run(s, false)
		degraded, tDegraded := run(s, true)
		if render(healthy) != render(degraded) {
			t.Fatalf("%s: degraded output differs from healthy", s.Name())
		}
		if healthy.MapTasks != degraded.MapTasks {
			t.Fatalf("%s: task count changed under failure (%d vs %d)", s.Name(), healthy.MapTasks, degraded.MapTasks)
		}
		// Replication with 2 copies serves the split from the other
		// replica at the same cost; coded schemes pay for reconstruction.
		if _, isRepl := s.(dfs.Replication); !isRepl && tDegraded <= tHealthy {
			t.Fatalf("%s: degraded job (%g) not slower than healthy (%g)", s.Name(), tDegraded, tHealthy)
		}
	}
}

// TestDegradedMapCheaperWithCarousel pins the transfer advantage: an RS
// degraded split fetches k full blocks; a Carousel split fetches only k
// split-lengths (p/k times less).
func TestDegradedMapCheaperWithCarousel(t *testing.T) {
	car := mustCarousel(t, 12, 6, 10, 12)
	blockSize := 20 * car.BlockAlign() * 64
	data := workload.Text(6*blockSize, 72)

	cost := func(s dfs.Scheme) int {
		sim := cluster.NewSim()
		c := cluster.NewCluster(sim, 30, cluster.NodeSpec{})
		fs := dfs.New(c, c.Nodes())
		if _, err := fs.Write("f", data, blockSize, s); err != nil {
			t.Fatal(err)
		}
		if err := fs.FailBlock("f", 0, 0); err != nil {
			t.Fatal(err)
		}
		splits, err := fs.Splits("f")
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range splits {
			if !sp.Degraded {
				continue
			}
			dc, err := fs.DegradedSplitCost(sp)
			if err != nil {
				t.Fatal(err)
			}
			return dc.TotalBytes()
		}
		t.Fatal("no degraded split found")
		return 0
	}
	rsBytes := cost(rsPoint(t, 12, 6))
	carBytes := cost(dfs.Carousel{Code: car})
	if rsBytes != 6*blockSize {
		t.Fatalf("RS degraded transfer = %d, want %d", rsBytes, 6*blockSize)
	}
	if carBytes != 6*blockSize/2 {
		t.Fatalf("carousel degraded transfer = %d, want %d (p/k = 2x cheaper)", carBytes, 6*blockSize/2)
	}
}
