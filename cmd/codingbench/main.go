// Command codingbench regenerates the coding microbenchmarks of the paper:
//
//	Fig. 5  — generator matrices of (3,2) RS vs (3,2,2,3) Carousel
//	Fig. 6a — encoding throughput vs k   (n=2k; RS, Carousel d=k, MSR d=2k-1, Carousel d=2k-1)
//	Fig. 6b — decoding throughput vs k   (one data block lost, decode from k blocks)
//	Fig. 7  — network traffic to reconstruct one block vs k
//	Fig. 8a — reconstruction time at the newcomer vs k
//	Fig. 8b — reconstruction time at a helper vs k
//
// Usage:
//
//	codingbench [-fig all|5|6a|6b|7|8a|8b|ext|lrc|par|tol] [-ks 2,4,6,8,10] [-mb 16] [-trafficmb 512] [-reps 3]
//
// Every code stripes blocks of 64 KiB units or more across the process's
// GOMAXPROCS cores, so the environment is the procs axis: a scaling curve
// is one run per value (GOMAXPROCS=4 codingbench -fig par; make
// bench-sweep runs 1, 2, 4 and 8).
//
// The four series of Figs. 6-8 are four parameter points of one code
// (bench.NewFamily): RS is Carousel(2k,k,k,k) and MSR is
// Carousel(2k,k,2k-1,k), so every column runs the same engine with the
// same number of workers. Absolute throughput depends on the machine (the
// paper used ISA-L on a c4.4xlarge); the relative shape is what to read.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"carousel/internal/bench"
	"carousel/internal/carousel"
	"carousel/internal/lrc"
	"carousel/internal/matrix"
	"carousel/internal/mbr"
	"carousel/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 5, 6a, 6b, 7, 8a, 8b, ext, lrc, par, tol")
	ksFlag := flag.String("ks", "2,4,6,8,10", "comma-separated k values (n = 2k)")
	mb := flag.Int("mb", 16, "block size in MiB for throughput and timing figures")
	trafficMB := flag.Int("trafficmb", 512, "block size in MiB that Fig. 7 traffic is reported for")
	reps := flag.Int("reps", 3, "timed repetitions per measurement")
	flag.Parse()

	log := obs.SetDefaultLogger(false)
	ks, err := parseKs(*ksFlag)
	if err != nil {
		log.Error("bad -ks", "err", err)
		os.Exit(1)
	}
	sel, err := selectFigures(*fig)
	if err != nil {
		log.Error("bad -fig", "err", err)
		os.Exit(1)
	}
	for _, f := range sel {
		if err := f.run(ks, *mb, *trafficMB, *reps); err != nil {
			log.Error("figure failed", "fig", f.name, "err", err)
			os.Exit(1)
		}
	}
}

// figure is one -fig value.
type figure struct {
	name string
	run  func(ks []int, mb, trafficMB, reps int) error
}

// figures is the one table of known -fig values, in the order -fig all
// runs them.
var figures = []figure{
	{"5", func([]int, int, int, int) error { return fig5() }},
	{"6a", func(ks []int, mb, _, reps int) error { return fig6a(ks, mb, reps) }},
	{"6b", func(ks []int, mb, _, reps int) error { return fig6b(ks, mb, reps) }},
	{"7", func(ks []int, _, trafficMB, _ int) error { return fig7(ks, trafficMB) }},
	{"8a", func(ks []int, mb, _, reps int) error { return fig8a(ks, mb, reps) }},
	{"8b", func(ks []int, mb, _, reps int) error { return fig8b(ks, mb, reps) }},
	{"ext", func(ks []int, mb, _, reps int) error { return extFutureWork(ks, mb, reps) }},
	{"lrc", func(_ []int, _, trafficMB, _ int) error { return lrcComparison(trafficMB) }},
	{"par", func(ks []int, mb, _, reps int) error { return parEncode(ks, mb, reps) }},
	{"tol", func([]int, int, int, int) error { return tolerance() }},
}

// selectFigures resolves a -fig value against the table. An unknown value
// is an error naming the valid ones — never an empty selection, so a
// recipe that asks for a figure that does not exist fails instead of
// passing having run nothing.
func selectFigures(name string) ([]figure, error) {
	if name == "all" {
		return figures, nil
	}
	valid := []string{"all"}
	for _, f := range figures {
		if f.name == name {
			return []figure{f}, nil
		}
		valid = append(valid, f.name)
	}
	return nil, fmt.Errorf("unknown -fig %q (valid: %s)", name, strings.Join(valid, " "))
}

// tolerance enumerates every f-failure pattern and reports the fraction
// each code family survives — the durability side of the related-work
// trade-off. MDS codes (RS, MSR, Carousel) survive everything up to
// n-k; LRC's coverage decays beyond its guarantee; replication depends on
// which copies die.
func tolerance() error {
	bench.Section(os.Stdout, "Related-work comparison: fraction of f-failure patterns survived")
	car, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		return err
	}
	lc, err := lrc.New(6, 2, 2)
	if err != nil {
		return err
	}
	t := bench.NewTable(os.Stdout, "f", "RS/MSR/Carousel(12,6)", "LRC(6,2,2)", "3x-replication (4 blocks)")
	for f := 1; f <= 6; f++ {
		mds := 0.0
		if f <= car.N()-car.K() {
			mds = 1.0
		}
		lrcOK := coverage(lc.N(), f, func(avail []bool) bool { return lc.IsDecodable(avail) })
		// 3x replication of 4 blocks = 12 stored copies; data survives
		// when no block loses all 3 copies.
		replOK := coverage(12, f, func(avail []bool) bool {
			for b := 0; b < 4; b++ {
				alive := false
				for c := 0; c < 3; c++ {
					if avail[b*3+c] {
						alive = true
						break
					}
				}
				if !alive {
					return false
				}
			}
			return true
		})
		t.Row(f, fmt.Sprintf("%.3f", mds), fmt.Sprintf("%.3f", lrcOK), fmt.Sprintf("%.3f", replOK))
	}
	t.Flush()
	fmt.Println("Same 2x overhead: the MDS families survive every loss up to n-k = 6;")
	fmt.Println("LRC(6,2,2) stores less (1.67x) and survives less; 3x replication stores")
	fmt.Println("more (3x) yet can lose data to 3 correlated failures.")
	fmt.Println()
	return nil
}

// coverage enumerates all f-subsets of n blocks and returns the surviving
// fraction.
func coverage(n, f int, ok func([]bool) bool) float64 {
	avail := make([]bool, n)
	idx := make([]int, f)
	total, good := 0, 0
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == f {
			for i := range avail {
				avail[i] = true
			}
			for _, i := range idx {
				avail[i] = false
			}
			total++
			if ok(avail) {
				good++
			}
			return
		}
		for i := start; i <= n-(f-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

// parEncode measures Carousel(2k,k,2k-1,2k) encode throughput at the
// process's GOMAXPROCS, an implementation ablation: the paper's ISA-L
// prototype used 16 cores; one run per GOMAXPROCS value shows the pure-Go
// kernel's scaling on this machine.
func parEncode(ks []int, mb, reps int) error {
	procs := runtime.GOMAXPROCS(0)
	bench.Section(os.Stdout, fmt.Sprintf("Ablation: Carousel(2k,k,2k-1,2k) encode throughput at GOMAXPROCS %d (MB/s), blocks of %d MiB", procs, mb))
	t := bench.NewTable(os.Stdout, "k", fmt.Sprintf("procs=%d", procs))
	for _, k := range ks {
		c, err := carousel.New(2*k, k, 2*k-1, 2*k)
		if err != nil {
			return err
		}
		size := alignUp(mb<<20, c.BlockAlign())
		data := bench.RandomShards(k, size, int64(k))
		t.Row(k, bench.Measure(reps, k*size, func() { mustB(c.Encode(data)) }))
	}
	t.Flush()
	return nil
}

// lrcComparison contrasts the code families the paper's related-work
// section discusses at (roughly) matched parameters: repair traffic,
// repair locality (helpers contacted), data parallelism, and failure
// tolerance.
func lrcComparison(trafficMB int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Related-work comparison at k=6 (blocks of %d MiB)", trafficMB))
	rs, err := carousel.New(12, 6, 6, 6)
	if err != nil {
		return err
	}
	car, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		return err
	}
	lc, err := lrc.New(6, 2, 2)
	if err != nil {
		return err
	}
	mb, err := mbr.New(12, 6, 10)
	if err != nil {
		return err
	}
	blockSize := trafficMB << 20
	t := bench.NewTable(os.Stdout, "code", "overhead", "repair MB", "helpers", "parallelism", "any-f tolerated")
	t.Row("RS(12,6)", "2.00x", float64(rs.ReconstructionTraffic(blockSize))/1e6, 6, 6, 6)
	t.Row("Carousel(12,6,10,12)", "2.00x", float64(car.ReconstructionTraffic(blockSize))/1e6, 10, 12, 6)
	t.Row("MSR(12,6,10)", "2.00x", float64(car.ReconstructionTraffic(blockSize))/1e6, 10, 6, 6)
	t.Row("MBR(12,6,10)", fmt.Sprintf("%.2fx", mb.StorageOverhead()),
		float64(mb.ReconstructionTraffic(blockSize))/1e6, mb.D(), 6, 6)
	t.Row("LRC(6,2,2)", fmt.Sprintf("%.2fx", lc.StorageOverhead()),
		float64(lc.ReconstructionTraffic(0, blockSize))/1e6, lc.GroupSize(), 6, 3)
	t.Flush()
	fmt.Println("LRC trades the MDS property for cheap local repair (3 helpers) at lower")
	fmt.Println("overhead; Carousel keeps MDS, halves repair traffic versus RS, and is the")
	fmt.Println("only one to raise data parallelism beyond k.")
	fmt.Println()
	return nil
}

// extFutureWork quantifies the extension Section VIII-B leaves as future
// work: recovering the original data by visiting more than k blocks.
// Decode uses exactly k blocks (the paper's fair-comparison setting);
// ParallelRead visits all available data-bearing blocks, so with one block
// lost it solves a system 1/p the size and copies the rest.
func extFutureWork(ks []int, mb, reps int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Extension: Carousel degraded recovery, k-block decode vs p-block parallel read (MB/s), blocks of %d MiB", mb))
	t := bench.NewTable(os.Stdout, "k", "Decode(k blocks)", "ParallelRead(p blocks)")
	for _, k := range ks {
		c, err := carousel.New(2*k, k, 2*k-1, 2*k)
		if err != nil {
			return err
		}
		size := alignUp(mb<<20, c.BlockAlign())
		data := bench.RandomShards(k, size, int64(k))
		blocks, err := c.Encode(data)
		if err != nil {
			return err
		}
		vol := k * size
		// One lost block in both scenarios.
		kOnly := make([][]byte, len(blocks))
		for i := 1; i <= k; i++ {
			kOnly[i] = blocks[i]
		}
		all := make([][]byte, len(blocks))
		copy(all, blocks)
		all[0] = nil
		dec := bench.Measure(reps, vol, func() { mustB(c.Decode(kOnly)) })
		par := bench.Measure(reps, vol, func() { mustB(c.ParallelRead(all)) })
		t.Row(k, dec, par)
	}
	t.Flush()
	return nil
}

// alignUp rounds size up to a multiple of align.
func alignUp(size, align int) int { return (size + align - 1) / align * align }

func parseKs(s string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 2 {
			return nil, fmt.Errorf("invalid k %q", part)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// fig5 prints the (3,2) RS — the (3,2,2,2) point — and (3,2,2,3) Carousel
// generator matrices and their sparsity, reproducing the comparison of
// Fig. 5.
func fig5() error {
	bench.Section(os.Stdout, "Fig. 5: generator matrices, (3,2) RS vs (3,2,2,3) Carousel")
	rs, err := carousel.New(3, 2, 2, 2)
	if err != nil {
		return err
	}
	car, err := carousel.New(3, 2, 2, 3)
	if err != nil {
		return err
	}
	printGen := func(name string, g *matrix.Matrix, k int) {
		fmt.Printf("%s generator (%dx%d, %d nonzeros):\n%s", name, g.Rows(), g.Cols(), g.NNZ(), g)
		maxParity := 0
		for r := 0; r < g.Rows(); r++ {
			if _, unit := g.UnitColumn(r); !unit {
				if nnz := g.RowNNZ(r); nnz > maxParity {
					maxParity = nnz
				}
			}
		}
		fmt.Printf("max nonzeros in a parity row: %d (k = %d)\n\n", maxParity, k)
	}
	printGen("RS(3,2)", rs.GeneratorMatrix(), 2)
	printGen("Carousel(3,2,2,3)", car.GeneratorMatrix(), 2)
	fmt.Println("The Carousel matrix is 3x larger (expansion by P=3) but stays sparse:")
	fmt.Println("every parity-unit row combines at most k=2 data units, so encoding")
	fmt.Println("complexity per output byte matches RS (the paper's encoding optimization).")
	fmt.Println()
	return nil
}

// seriesFigure prints one of Figs. 6-8: a row per k, a column per series
// of bench.NewFamily(k), each cell measured by cell on that series' code
// with k shards of one block size that suits all four. computeOnly keeps
// only the series whose helpers compute (d > k).
func seriesFigure(ks []int, blockBytes int, computeOnly bool,
	cell func(s bench.Series, k, size int, data [][]byte) float64) error {
	var t *bench.Table
	for _, k := range ks {
		f, err := bench.NewFamily(k)
		if err != nil {
			return err
		}
		size := f.AlignBlockSize(blockBytes)
		data := bench.RandomShards(k, size, int64(k))
		headers, row := []string{"k"}, []any{k}
		for _, s := range f {
			if computeOnly && s.Code.D() == s.Code.K() {
				continue
			}
			headers = append(headers, s.Name)
			row = append(row, cell(s, k, size, data))
		}
		if t == nil {
			t = bench.NewTable(os.Stdout, headers...)
		}
		t.Row(row...)
	}
	if t != nil {
		t.Flush()
	}
	return nil
}

// fig6a measures encoding throughput.
func fig6a(ks []int, mb, reps int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Fig. 6a: encoding throughput (MB/s), blocks of %d MiB", mb))
	return seriesFigure(ks, mb<<20, false, func(s bench.Series, k, size int, data [][]byte) float64 {
		return bench.Measure(reps, k*size, func() { mustB(s.Code.Encode(data)) })
	})
}

// fig6b measures decoding throughput with one data block missing: the
// paper decodes from blocks 2..k+1 (k-1 data blocks and one parity block).
func fig6b(ks []int, mb, reps int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Fig. 6b: decoding throughput (MB/s), one data block lost, blocks of %d MiB", mb))
	return seriesFigure(ks, mb<<20, false, func(s bench.Series, k, size int, data [][]byte) float64 {
		blocks := mustB(s.Code.Encode(data))
		avail := make([][]byte, len(blocks))
		copy(avail[1:k+1], blocks[1:k+1])
		return bench.Measure(reps, k*size, func() { mustB(s.Code.Decode(avail)) })
	})
}

// fig7 reports the network traffic to reconstruct block 0, measured by
// summing the actual helper uploads of a real repair, reported for
// trafficMB-sized blocks.
func fig7(ks []int, trafficMB int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Fig. 7: reconstruction traffic (MB) for %d MiB blocks", trafficMB))
	// Verify with a real small repair that measured chunk sizes match the
	// analytic formula, then report at the requested block size.
	return seriesFigure(ks, 1<<16, false, func(s bench.Series, _, size int, data [][]byte) float64 {
		if got, want := repairTraffic(s.Code, data), s.Code.ReconstructionTraffic(size); got != want {
			panic(fmt.Sprintf("%s: measured traffic %d != analytic %d", s.Name, got, want))
		}
		return float64(s.Code.ReconstructionTraffic(trafficMB<<20)) / 1e6
	})
}

// repairChunks encodes data and returns the first d helpers of block 0
// with the chunks they upload.
func repairChunks(c *carousel.Code, data [][]byte) (helpers []int, chunks [][]byte) {
	blocks := mustB(c.Encode(data))
	helpers = firstHelpers(c.N(), c.D(), 0)
	chunks = make([][]byte, len(helpers))
	for i, h := range helpers {
		chunks[i] = mustB(c.HelperChunk(h, 0, blocks[h]))
	}
	return helpers, chunks
}

// repairTraffic runs the helper side of a real repair of block 0 and
// returns the bytes the helpers uploaded.
func repairTraffic(c *carousel.Code, data [][]byte) int {
	_, chunks := repairChunks(c, data)
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	return n
}

// fig8a measures the newcomer-side reconstruction time.
func fig8a(ks []int, mb, reps int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Fig. 8a: reconstruction time at the newcomer (ms), blocks of %d MiB", mb))
	return seriesFigure(ks, mb<<20, false, func(s bench.Series, _, _ int, data [][]byte) float64 {
		helpers, chunks := repairChunks(s.Code, data)
		return 1e3 * bench.MeasureSeconds(reps, func() { mustB(s.Code.RepairBlock(0, helpers, chunks)) })
	})
}

// fig8b measures the helper-side time; at d = k helpers only send data, so
// the paper (and this table) shows MSR and Carousel(d=2k-1).
func fig8b(ks []int, mb, reps int) error {
	bench.Section(os.Stdout, fmt.Sprintf("Fig. 8b: time at one helper (ms), blocks of %d MiB", mb))
	return seriesFigure(ks, mb<<20, true, func(s bench.Series, _, _ int, data [][]byte) float64 {
		blocks := mustB(s.Code.Encode(data))
		return 1e3 * bench.MeasureSeconds(reps, func() { mustB(s.Code.HelperChunk(1, 0, blocks[1])) })
	})
}

// firstHelpers returns the first d block indices excluding failed.
func firstHelpers(n, d, failed int) []int {
	out := make([]int, 0, d)
	for i := 0; i < n && len(out) < d; i++ {
		if i != failed {
			out = append(out, i)
		}
	}
	return out
}

func mustB[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
