package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"carousel/internal/carousel"
	"carousel/internal/cluster"
	"carousel/internal/dfs"
	"carousel/internal/workload"
)

const (
	mbps = 1e6 / 8
	mb   = 1 << 20
)

// rig builds a 30-worker cluster (the paper's slave count) with an FS and
// an engine.
type rig struct {
	sim    *cluster.Sim
	fs     *dfs.FS
	engine *Engine
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := cluster.NewSim()
	c := cluster.NewCluster(sim, 30, cluster.NodeSpec{
		DiskReadBW:  400 * mbps,
		DiskWriteBW: 400 * mbps,
		NetInBW:     1000 * mbps,
		NetOutBW:    1000 * mbps,
		Slots:       2,
		ComputeBW:   50 * mb,
	})
	fs := dfs.New(c, c.Nodes())
	return &rig{sim: sim, fs: fs, engine: NewEngine(c, fs, c.Nodes(), DefaultCostSpec())}
}

func mustCarousel(t *testing.T, n, k, d, p int) *carousel.Code {
	t.Helper()
	c, err := carousel.New(n, k, d, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rsPoint is the (n, k) Reed-Solomon baseline: the Carousel code at d = k,
// p = k.
func rsPoint(t *testing.T, n, k int) dfs.Scheme {
	t.Helper()
	return dfs.Carousel{Code: mustCarousel(t, n, k, k, k)}
}

// referenceWordCount computes word counts directly.
func referenceWordCount(data []byte) map[string]int {
	counts := make(map[string]int)
	for _, w := range strings.Fields(string(data)) {
		counts[w]++
	}
	return counts
}

func TestWordCountCorrectAcrossSchemes(t *testing.T) {
	car := mustCarousel(t, 12, 6, 10, 12)
	blockSize := 20 * car.BlockAlign() * 64 // multiple of the alignment
	data := workload.Text(6*blockSize, 1)
	want := referenceWordCount(data)

	schemes := []dfs.Scheme{
		dfs.Replication{Copies: 1},
		dfs.Replication{Copies: 2},
		rsPoint(t, 12, 6),
		dfs.Carousel{Code: car},
		dfs.Carousel{Code: mustCarousel(t, 12, 6, 10, 8)},
	}
	var outputs []string
	for _, s := range schemes {
		r := newRig(t)
		if _, err := r.fs.Write("text", data, blockSize, s); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		res, err := r.engine.Run(WordCountJob("text", 3))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(res.Output) != len(want) {
			t.Fatalf("%s: %d distinct words, want %d", s.Name(), len(res.Output), len(want))
		}
		for _, kv := range res.Output {
			n, _ := strconv.Atoi(kv.Value)
			if want[kv.Key] != n {
				t.Fatalf("%s: count[%q] = %d, want %d", s.Name(), kv.Key, n, want[kv.Key])
			}
		}
		var sb strings.Builder
		for _, kv := range res.Output {
			fmt.Fprintf(&sb, "%s=%s;", kv.Key, kv.Value)
		}
		outputs = append(outputs, sb.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("scheme %s output differs from %s", schemes[i].Name(), schemes[0].Name())
		}
	}
}

func TestTerasortSortsAcrossSplits(t *testing.T) {
	car := mustCarousel(t, 12, 6, 10, 12)
	blockSize := 10 * car.BlockAlign() * 100
	data := workload.Records(6*blockSize, 100, 2)
	r := newRig(t)
	if _, err := r.fs.Write("records", data, blockSize, dfs.Carousel{Code: car}); err != nil {
		t.Fatal(err)
	}
	res, err := r.engine.Run(TerasortJob("records", 4))
	if err != nil {
		t.Fatal(err)
	}
	recs := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(res.Output) != len(recs) {
		t.Fatalf("output has %d records, want %d", len(res.Output), len(recs))
	}
	for i := 1; i < len(res.Output); i++ {
		if res.Output[i].Key < res.Output[i-1].Key {
			t.Fatalf("output not sorted at %d", i)
		}
	}
}

func TestMapTaskCountTracksScheme(t *testing.T) {
	car12 := mustCarousel(t, 12, 6, 10, 12)
	car8 := mustCarousel(t, 12, 6, 10, 8)
	blockSize := 20 * 12 * car12.BlockAlign() * car8.BlockAlign()
	data := workload.Text(6*blockSize, 3)
	cases := []struct {
		scheme dfs.Scheme
		want   int
	}{
		{dfs.Replication{Copies: 1}, 6},
		{dfs.Replication{Copies: 2}, 12},
		{rsPoint(t, 12, 6), 6},
		{dfs.Carousel{Code: car8}, 8},
		{dfs.Carousel{Code: car12}, 12},
	}
	for _, tc := range cases {
		r := newRig(t)
		if _, err := r.fs.Write("f", data, blockSize, tc.scheme); err != nil {
			t.Fatalf("%s: %v", tc.scheme.Name(), err)
		}
		res, err := r.engine.Run(WordCountJob("f", 2))
		if err != nil {
			t.Fatalf("%s: %v", tc.scheme.Name(), err)
		}
		if res.MapTasks != tc.want {
			t.Errorf("%s: %d map tasks, want %d", tc.scheme.Name(), res.MapTasks, tc.want)
		}
		if res.LocalTasks != res.MapTasks {
			t.Errorf("%s: only %d of %d tasks data-local", tc.scheme.Name(), res.LocalTasks, res.MapTasks)
		}
	}
}

func TestCarouselMapPhaseFasterThanRS(t *testing.T) {
	// Fig. 9's mechanism: p=12 splits of half the size finish in roughly
	// half the map time of k=6 full-block splits.
	car := mustCarousel(t, 12, 6, 10, 12)
	blockSize := 40 * car.BlockAlign() * 512 // ~200 KB
	data := workload.Text(6*blockSize, 4)
	// Work-dominated calibration: per-byte costs large relative to the
	// task overhead, as with the paper's 512 MB blocks.
	run := func(s dfs.Scheme) *Result {
		sim := cluster.NewSim()
		c := cluster.NewCluster(sim, 30, cluster.NodeSpec{
			DiskReadBW:  2 * mb,
			DiskWriteBW: 2 * mb,
			NetInBW:     8 * mb,
			NetOutBW:    8 * mb,
			Slots:       2,
			ComputeBW:   1 * mb,
		})
		fs := dfs.New(c, c.Nodes())
		if _, err := fs.Write("f", data, blockSize, s); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(c, fs, c.Nodes(), CostSpec{TaskOverhead: 0.01, MapCPUFactor: 1, ReduceCPUFactor: 1})
		res, err := eng.Run(WordCountJob("f", 3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rs := run(rsPoint(t, 12, 6))
	cr := run(dfs.Carousel{Code: car})
	if cr.AvgMapSeconds >= rs.AvgMapSeconds {
		t.Fatalf("carousel map %.2fs not faster than RS %.2fs", cr.AvgMapSeconds, rs.AvgMapSeconds)
	}
	saving := 1 - cr.AvgMapSeconds/rs.AvgMapSeconds
	// Theoretical optimum is 50%; overheads reduce it (paper saw 46.8%).
	if saving < 0.25 || saving > 0.55 {
		t.Fatalf("map time saving %.1f%%, want between 25%% and 55%%", saving*100)
	}
	if cr.JobSeconds >= rs.JobSeconds {
		t.Fatalf("carousel job %.2fs not faster than RS %.2fs", cr.JobSeconds, rs.JobSeconds)
	}
}

func TestSlotsLimitConcurrency(t *testing.T) {
	// One worker with one slot: tasks serialize, so the map phase is at
	// least the sum of task times.
	sim := cluster.NewSim()
	c := cluster.NewCluster(sim, 1, cluster.NodeSpec{Slots: 1, ComputeBW: 100 * mb})
	fs := dfs.New(c, c.Nodes())
	data := workload.Text(4000, 5)
	if _, err := fs.Write("f", data, 1000, dfs.Replication{Copies: 1}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(c, fs, c.Nodes(), CostSpec{TaskOverhead: 1})
	res, err := eng.Run(WordCountJob("f", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks != 4 {
		t.Fatalf("map tasks = %d, want 4", res.MapTasks)
	}
	if res.MapPhaseSeconds < 4*1.0 {
		t.Fatalf("map phase %.2fs; 4 serialized 1s-overhead tasks need >= 4s", res.MapPhaseSeconds)
	}
}

func TestJobValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.engine.Run(Job{Name: "bad", File: "missing"}); err == nil {
		t.Fatal("job without mapper/reducer did not error")
	}
	if _, err := r.engine.Run(WordCountJob("missing", 1)); err == nil {
		t.Fatal("job on missing file did not error")
	}
}

func TestRecordBoundariesRespected(t *testing.T) {
	// Craft data where a record straddles every split boundary; each word
	// appears exactly once so double counting or loss is visible.
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "unique%06d\n", i)
	}
	data := []byte(sb.String())
	car := mustCarousel(t, 12, 6, 10, 8) // split size not line-aligned
	blockSize := ((len(data)+5)/6 + car.BlockAlign()) / car.BlockAlign() * car.BlockAlign()
	r := newRig(t)
	if _, err := r.fs.Write("u", data, blockSize, dfs.Carousel{Code: car}); err != nil {
		t.Fatal(err)
	}
	res, err := r.engine.Run(WordCountJob("u", 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 5000 {
		t.Fatalf("distinct words = %d, want 5000", len(res.Output))
	}
	for _, kv := range res.Output {
		if kv.Value != "1" {
			t.Fatalf("word %q counted %s times, want 1", kv.Key, kv.Value)
		}
	}
}

func TestShuffleBytesReported(t *testing.T) {
	r := newRig(t)
	data := workload.Records(60_000, 100, 6)
	if _, err := r.fs.Write("rec", data, 10_000, dfs.Replication{Copies: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := r.engine.Run(TerasortJob("rec", 2))
	if err != nil {
		t.Fatal(err)
	}
	// Terasort shuffles roughly its whole input.
	if res.ShuffleBytes < int64(len(data)/2) {
		t.Fatalf("ShuffleBytes = %d, want >= %d", res.ShuffleBytes, len(data)/2)
	}
}
