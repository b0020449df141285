// Command clusterbench regenerates the paper's Hadoop cluster experiments
// on the simulated cluster:
//
//	Fig. 9  — map/reduce/job time of terasort and wordcount:
//	          (12,6) RS vs (12,6,10,12) Carousel, 3 GB file, 512 MB blocks,
//	          30 slaves
//	Fig. 10 — job completion time of (12,6,10,p) Carousel for p in
//	          {6,8,10,12} vs 1x and 2x replication
//	Fig. 11 — time to retrieve the 3 GB file: 3x replication via
//	          sequential get vs RS vs (12,6,10,10) Carousel, with datanode
//	          reads capped at 300 Mbps, with and without one failure
//
// Usage:
//
//	clusterbench [-fig all|9|10|11|deg|tail|swarm] [-scale 32] [-json]
//
// -scale divides the data size and every bandwidth by the same factor, so
// simulated durations equal the full-scale run while the real task logic
// (actual word counting and sorting) touches 1/scale of the bytes.
// Client-side decode time in Fig. 11 is charged at the throughput of this
// machine's real decoder, measured at startup.
//
// -fig swarm is different in kind (see figSwarm): an open-loop Zipf swarm
// over a live 12-server TCP cluster on loopback, stripe cache off vs on —
// never simulated, so not part of -fig all; -json writes its rows to
// BENCH_clusterbench.json. The live store's read, write and recovery paths
// are measured by the gated benchmark (bash benchmark/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"carousel/internal/bench"
	"carousel/internal/carousel"
	"carousel/internal/cluster"
	"carousel/internal/dfs"
	"carousel/internal/mapreduce"
	"carousel/internal/obs"
	"carousel/internal/workload"
)

const (
	mb           = 1 << 20
	mbps         = 1e6 / 8 // bytes/second per Mbit/s
	fullFile     = 3 * 1024 * mb
	fullBlock    = 512 * mb
	slaves       = 30
	reducers     = 6
	taskOverhead = 3.0 // seconds per Hadoop task (JVM start, setup)
)

// calib holds the full-scale node calibration; see EXPERIMENTS.md.
var calib = cluster.NodeSpec{
	DiskReadBW:  100 * mb,
	DiskWriteBW: 100 * mb,
	NetInBW:     125 * mb, // 1 Gbps
	NetOutBW:    125 * mb,
	Slots:       2,
	ComputeBW:   20 * mb, // Hadoop map-task processing rate
}

// options carries the parsed flags to the figures.
type options struct {
	scale        int
	jsonOut      bool
	swarmObjs    int
	swarmCache   int
	swarmDur     time.Duration
	swarmRate    float64
	swarmClients int
	swarmSeed    int64
}

// figure is one -fig value. A live figure runs over real sockets: it is
// not part of -fig all, and it is the only kind -json writes anything for.
type figure struct {
	name string
	live bool
	run  func(o options) error
}

// figures is the one table of known -fig values, in the order -fig all
// runs the simulated ones.
var figures = []figure{
	{"9", false, func(o options) error { return fig9(o.scale) }},
	{"10", false, func(o options) error { return fig10(o.scale) }},
	{"11", false, func(o options) error { return fig11(o.scale) }},
	{"deg", false, func(o options) error { return figDegraded(o.scale) }},
	{"tail", false, func(o options) error { return figTail(o.scale) }},
	{"swarm", true, figSwarm},
}

// selectFigures resolves a -fig value against the table. An unknown value
// is an error naming the valid ones — never an empty selection, so a
// recipe that asks for a retired figure fails instead of passing having
// run nothing — and so is -json with a figure that writes no JSON.
func selectFigures(name string, jsonOut bool) ([]figure, error) {
	var sel []figure
	valid := []string{"all"}
	for _, f := range figures {
		valid = append(valid, f.name)
		if f.name == name || (name == "all" && !f.live) {
			sel = append(sel, f)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown -fig %q (valid: %s)", name, strings.Join(valid, " "))
	}
	if jsonOut && !sel[0].live {
		return nil, fmt.Errorf("-json writes only the live figure (swarm); -fig %s is simulated and has no JSON", name)
	}
	return sel, nil
}

func main() {
	var o options
	fig := flag.String("fig", "all", "figure to regenerate: all, 9, 10, 11, deg, tail, swarm (all = the simulated ones, 9 through tail)")
	flag.IntVar(&o.scale, "scale", 32, "scale-down factor for data sizes and bandwidths")
	flag.IntVar(&o.swarmObjs, "swarmobjs", 256, "object population size for the -fig swarm open-loop Zipf benchmark")
	flag.IntVar(&o.swarmCache, "swarmcache", 4, "stripe cache budget in MiB for the -fig swarm cache-on variants")
	flag.DurationVar(&o.swarmDur, "swarmdur", 3*time.Second, "open-loop arrival window per -fig swarm variant")
	flag.Float64Var(&o.swarmRate, "swarmrate", 0, "offered load in reads/s for -fig swarm (0 = calibrate cache-off capacity and overload it 3x)")
	flag.IntVar(&o.swarmClients, "swarmclients", 384, "max concurrent in-flight reads per -fig swarm variant (arrivals beyond it are shed)")
	flag.Int64Var(&o.swarmSeed, "swarmseed", 42, "root seed for the -fig swarm Zipf object sequence and arrival process")
	flag.BoolVar(&o.jsonOut, "json", false, "with -fig swarm, also write measurements to "+benchJSONPath)
	flag.Parse()
	if o.scale < 1 {
		obs.SetDefaultLogger(false).Error("scale must be >= 1")
		os.Exit(1)
	}
	sel, err := selectFigures(*fig, o.jsonOut)
	if err != nil {
		obs.SetDefaultLogger(false).Error("bad -fig", "err", err)
		os.Exit(1)
	}
	for _, f := range sel {
		if err := f.run(o); err != nil {
			fail(err)
		}
	}
}

// figTail extends the evaluation with concurrent clients: 20 readers with
// staggered starts pull the same file while the datanodes' 300 Mbps read
// caps are shared. Spreading each read over p=10 sources instead of k=6
// lowers both the mean and the tail — the load-spreading effect the
// paper's introduction motivates (read throughput bottlenecked at the
// servers).
func figTail(scale int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Extension: 20 concurrent readers, per-read latency (scale 1/%d)", scale))
	car, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		return err
	}
	rs, err := carousel.New(12, 6, 6, 6) // the RS(12,6) baseline is the p = k, d = k point
	if err != nil {
		return err
	}
	blockSize := blockSizeFor(scale, car.BlockAlign())
	data := workload.Text(6*blockSize, 13)
	const clients = 20

	t := bench.NewTable(os.Stdout, "scheme", "mean (s)", "p90 (s)", "max (s)")
	for _, v := range []struct {
		name   string
		scheme dfs.Scheme
	}{
		{"RS(12,6), 6 streams/read", dfs.Carousel{Code: rs}},
		{"Carousel(12,6,10,10), 10 streams/read", dfs.Carousel{Code: car}},
	} {
		sim := cluster.NewSim()
		cl := cluster.NewCluster(sim, 18, scaledSpec(cluster.NodeSpec{DiskReadBW: 300 * mbps}, scale))
		clientNodes := make([]*cluster.Node, clients)
		for i := range clientNodes {
			clientNodes[i] = cl.AddNode(fmt.Sprintf("client%d", i),
				scaledSpec(cluster.NodeSpec{NetInBW: 2500 * mbps}, scale))
		}
		fs := dfs.New(cl, cl.Nodes()[:18])
		if _, err := fs.Write("file", data, blockSize, v.scheme); err != nil {
			return err
		}
		durations := make([]float64, clients)
		for i := 0; i < clients; i++ {
			i := i
			start := float64(i) * 0.5
			sim.GoAt(start, "reader", func(p *cluster.Proc) {
				res, err := fs.Read(p, clientNodes[i], "file", dfs.ReadParallel)
				if err != nil {
					panic(err)
				}
				_ = res
				durations[i] = p.Now() - start
			})
		}
		sim.Run()
		sort.Float64s(durations)
		mean := 0.0
		for _, d := range durations {
			mean += d
		}
		mean /= clients
		t.Row(v.name, mean, durations[(clients*9)/10], durations[clients-1])
		// Datanode load balance: max/mean of bytes served off each disk.
		var maxServed, sumServed float64
		served := 0
		for _, nd := range cl.Nodes()[:18] {
			b := nd.DiskRead().BytesServed()
			if b == 0 {
				continue
			}
			served++
			sumServed += b
			if b > maxServed {
				maxServed = b
			}
		}
		if served > 0 {
			fmt.Printf("  %s: %d datanodes served reads, load imbalance max/mean = %.2f\n",
				v.name, served, maxServed/(sumServed/float64(served)))
		}
	}
	t.Flush()
	fmt.Println("Carousel reads touch 10 of 12 servers at 1/10 of the volume each, so")
	fmt.Println("concurrent readers collide less on any one datanode's read cap.")
	fmt.Println()
	return nil
}

// figDegraded extends the paper's evaluation with the degraded-read
// MapReduce scenario its related work (Li et al. [23]) motivates: one data
// block is lost and the job must reconstruct that split remotely. An RS
// degraded map task downloads k full blocks; a Carousel task downloads k
// split-lengths (p/k times less) because the missing data units solve
// row-class by row-class.
func figDegraded(scale int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Extension: wordcount with one lost block (scale 1/%d)", scale))
	car, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		return err
	}
	rs, err := carousel.New(12, 6, 6, 6) // the RS(12,6) baseline is the p = k, d = k point
	if err != nil {
		return err
	}
	blockSize := blockSizeFor(scale, car.BlockAlign(), 100)
	data := workload.Text(6*blockSize, 12)
	t := bench.NewTable(os.Stdout, "scheme", "healthy job (s)", "degraded job (s)", "slowdown")
	for _, v := range []struct {
		name   string
		scheme dfs.Scheme
	}{
		{"RS(12,6)", dfs.Carousel{Code: rs}},
		{"Carousel(12,6,10,12)", dfs.Carousel{Code: car}},
	} {
		var times [2]float64
		for i, fail := range []bool{false, true} {
			sim := cluster.NewSim()
			cl := cluster.NewCluster(sim, slaves, scaledSpec(calib, scale))
			fs := dfs.New(cl, cl.Nodes())
			if _, err := fs.Write("input", data, blockSize, v.scheme); err != nil {
				return err
			}
			if fail {
				if err := fs.FailBlock("input", 0, 0); err != nil {
					return err
				}
			}
			eng := mapreduce.NewEngine(cl, fs, cl.Nodes(), mapreduce.CostSpec{
				TaskOverhead: taskOverhead, MapCPUFactor: 1, ReduceCPUFactor: 1,
			})
			res, err := eng.Run(mapreduce.WordCountJob("input", reducers))
			if err != nil {
				return err
			}
			times[i] = res.JobSeconds
		}
		t.Row(v.name, times[0], times[1], fmt.Sprintf("%.2fx", times[1]/times[0]))
	}
	t.Flush()
	fmt.Println("Carousel degrades more gracefully: its lost split is 1/p of the data and")
	fmt.Println("is rebuilt from k split-sized reads instead of k full blocks.")
	fmt.Println()
	return nil
}

func fail(err error) {
	obs.SetDefaultLogger(false).Error("benchmark failed", "err", err)
	os.Exit(1)
}

// scaledSpec divides every bandwidth by scale.
func scaledSpec(spec cluster.NodeSpec, scale int) cluster.NodeSpec {
	s := float64(scale)
	spec.DiskReadBW /= s
	spec.DiskWriteBW /= s
	spec.NetInBW /= s
	spec.NetOutBW /= s
	spec.ComputeBW /= s
	return spec
}

// blockSizeFor returns the scaled block size aligned for every code used.
func blockSizeFor(scale int, aligns ...int) int {
	align := 1
	for _, a := range aligns {
		align = align / gcd(align, a) * a
	}
	size := fullBlock / scale
	return size / align * align
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// runJob writes the data under the scheme on a fresh cluster and runs the
// job once (the simulation is deterministic, so one run is the mean).
func runJob(scale int, scheme dfs.Scheme, blockSize int, data []byte, job func(string) mapreduce.Job) (*mapreduce.Result, error) {
	sim := cluster.NewSim()
	cl := cluster.NewCluster(sim, slaves, scaledSpec(calib, scale))
	fs := dfs.New(cl, cl.Nodes())
	if _, err := fs.Write("input", data, blockSize, scheme); err != nil {
		return nil, err
	}
	eng := mapreduce.NewEngine(cl, fs, cl.Nodes(), mapreduce.CostSpec{
		TaskOverhead:    taskOverhead,
		MapCPUFactor:    1,
		ReduceCPUFactor: 1,
	})
	return eng.Run(job("input"))
}

func fig9(scale int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Fig. 9: Hadoop jobs, RS(12,6) vs Carousel(12,6,10,12) — 3 GB file, 512 MB blocks (scale 1/%d)", scale))
	car, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		return err
	}
	rs, err := carousel.New(12, 6, 6, 6) // the RS(12,6) baseline is the p = k, d = k point
	if err != nil {
		return err
	}
	blockSize := blockSizeFor(scale, car.BlockAlign(), 100)
	fileSize := 6 * blockSize
	text := workload.Text(fileSize, 9)
	records := workload.Records(fileSize, 100, 9)

	t := bench.NewTable(os.Stdout, "benchmark", "scheme", "map (s)", "reduce (s)", "job (s)")
	type cse struct {
		bench string
		data  []byte
		job   func(string) mapreduce.Job
	}
	cases := []cse{
		{"terasort", records, func(f string) mapreduce.Job { return mapreduce.TerasortJob(f, reducers) }},
		{"wordcount", text, func(f string) mapreduce.Job { return mapreduce.WordCountJob(f, reducers) }},
	}
	type sch struct {
		name   string
		scheme dfs.Scheme
	}
	schemes := []sch{
		{"RS", dfs.Carousel{Code: rs}},
		{"Carousel", dfs.Carousel{Code: car}},
	}
	results := make(map[string]*mapreduce.Result)
	for _, c := range cases {
		for _, s := range schemes {
			res, err := runJob(scale, s.scheme, blockSize, c.data, c.job)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", c.bench, s.name, err)
			}
			results[c.bench+"/"+s.name] = res
			t.Row(c.bench, s.name, res.AvgMapSeconds, res.AvgReduceSeconds, res.JobSeconds)
		}
	}
	t.Flush()
	for _, c := range cases {
		rsr := results[c.bench+"/RS"]
		crr := results[c.bench+"/Carousel"]
		fmt.Printf("%s: map time saved %.1f%%, job time saved %.1f%% (paper: wordcount 46.8%% map, terasort 39.7%% map / 15.9%% job)\n",
			c.bench, 100*(1-crr.AvgMapSeconds/rsr.AvgMapSeconds), 100*(1-crr.JobSeconds/rsr.JobSeconds))
	}
	fmt.Println()
	return nil
}

func fig10(scale int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Fig. 10: job completion time vs p, plus replication (scale 1/%d)", scale))
	ps := []int{6, 8, 10, 12}
	codes := make(map[int]*carousel.Code, len(ps))
	aligns := []int{100}
	for _, p := range ps {
		c, err := carousel.New(12, 6, 10, p)
		if err != nil {
			return err
		}
		codes[p] = c
		aligns = append(aligns, c.BlockAlign())
	}
	blockSize := blockSizeFor(scale, aligns...)
	fileSize := 6 * blockSize
	text := workload.Text(fileSize, 10)
	records := workload.Records(fileSize, 100, 10)

	t := bench.NewTable(os.Stdout, "scheme", "terasort job (s)", "wordcount job (s)")
	run := func(name string, scheme dfs.Scheme) error {
		ts, err := runJob(scale, scheme, blockSize, records, func(f string) mapreduce.Job { return mapreduce.TerasortJob(f, reducers) })
		if err != nil {
			return fmt.Errorf("%s terasort: %w", name, err)
		}
		wc, err := runJob(scale, scheme, blockSize, text, func(f string) mapreduce.Job { return mapreduce.WordCountJob(f, reducers) })
		if err != nil {
			return fmt.Errorf("%s wordcount: %w", name, err)
		}
		t.Row(name, ts.JobSeconds, wc.JobSeconds)
		return nil
	}
	if err := run("1x replication", dfs.Replication{Copies: 1}); err != nil {
		return err
	}
	for _, p := range ps {
		if err := run(fmt.Sprintf("Carousel p=%d", p), dfs.Carousel{Code: codes[p]}); err != nil {
			return err
		}
	}
	if err := run("2x replication", dfs.Replication{Copies: 2}); err != nil {
		return err
	}
	t.Flush()
	fmt.Println("Expected shape: job time falls as p grows; p=6 tracks 1x replication")
	fmt.Println("(and RS in Fig. 9); p=12 approaches 2x replication at half the storage.")
	fmt.Println()
	return nil
}

// measureDecodeBW measures the real throughput of a code's degraded
// parallel read on this machine — one stripe with data block 0 lost, one
// block's worth of bytes credited per read — used to charge client decode
// time in Fig. 11.
func measureDecodeBW(code *carousel.Code, blockSize int, seed int64) (float64, error) {
	blocks, err := code.Encode(bench.RandomShards(code.K(), blockSize, seed))
	if err != nil {
		return 0, err
	}
	blocks[0] = nil
	secs := bench.MeasureSeconds(2, func() {
		if _, err := code.ParallelRead(blocks); err != nil {
			panic(err)
		}
	})
	if secs <= 0 {
		return 0, nil
	}
	return float64(blockSize) / secs, nil
}

func fig11(scale int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Fig. 11: retrieving the 3 GB file, datanode reads capped at 300 Mbps (scale 1/%d)", scale))
	car, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		return err
	}
	rs, err := carousel.New(12, 6, 6, 6) // the RS(12,6) baseline is the p = k, d = k point
	if err != nil {
		return err
	}
	blockSize := blockSizeFor(scale, car.BlockAlign())
	fileSize := 6 * blockSize
	data := workload.Text(fileSize, 11)

	// Real decode throughput of this machine's codecs, for the degraded
	// cases.
	probe := car.BlockAlign() * 13000
	carBW, err := measureDecodeBW(car, probe, 1)
	if err != nil {
		return err
	}
	rsBW, err := measureDecodeBW(rs, probe, 2)
	if err != nil {
		return err
	}
	fmt.Printf("measured decoder throughput: RS %.0f MB/s, Carousel %.0f MB/s\n", rsBW/1e6, carBW/1e6)

	type variant struct {
		name   string
		scheme dfs.Scheme
		mode   dfs.ReadMode
		bw     float64
	}
	variants := []variant{
		{"HDFS 3x replication (sequential get)", dfs.Replication{Copies: 3}, dfs.ReadSequential, 0},
		{"RS (parallel, k=6 streams)", dfs.Carousel{Code: rs}, dfs.ReadParallel, rsBW},
		{"Carousel (parallel, p=10 streams)", dfs.Carousel{Code: car}, dfs.ReadParallel, carBW},
	}
	t := bench.NewTable(os.Stdout, "scheme", "no failure (s)", "one failure (s)")
	for _, v := range variants {
		var times [2]float64
		for fi, withFailure := range []bool{false, true} {
			sim := cluster.NewSim()
			spec := scaledSpec(cluster.NodeSpec{DiskReadBW: 300 * mbps}, scale)
			cl := cluster.NewCluster(sim, 18, spec)
			client := cl.AddNode("client", scaledSpec(cluster.NodeSpec{NetInBW: 2500 * mbps}, scale))
			fs := dfs.New(cl, cl.Nodes()[:18])
			if v.bw > 0 {
				fs.DecodeBW[v.scheme.Name()] = v.bw / float64(scale)
			}
			if _, err := fs.Write("file", data, blockSize, v.scheme); err != nil {
				return err
			}
			if withFailure {
				// Remove one block holding original data; for replication
				// that is one replica of a block (others survive).
				if _, isRepl := v.scheme.(dfs.Replication); isRepl {
					if err := fs.FailReplica("file", 0, 0, 0); err != nil {
						return err
					}
				} else if err := fs.FailBlock("file", 0, 0); err != nil {
					return err
				}
			}
			var done float64
			var rerr error
			sim.Go("get", func(p *cluster.Proc) {
				res, err := fs.Read(p, client, "file", v.mode)
				if err != nil {
					rerr = err
					return
				}
				if len(res.Data) != fileSize {
					rerr = fmt.Errorf("short read: %d of %d", len(res.Data), fileSize)
					return
				}
				done = p.Now()
			})
			sim.Run()
			if rerr != nil {
				return fmt.Errorf("%s: %w", v.name, rerr)
			}
			times[fi] = done
		}
		t.Row(v.name, times[0], times[1])
	}
	t.Flush()
	fmt.Println("Expected shape: parallel reads beat the sequential get by a wide margin;")
	fmt.Println("Carousel's 10 streams beat RS's 6 (paper: 29.0% less time without failure,")
	fmt.Println("75.4% less than the built-in command with one failure).")
	fmt.Println()
	return nil
}
