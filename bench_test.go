// Benchmarks regenerating the paper's evaluation, one family per figure.
// The cmd/codingbench and cmd/clusterbench harnesses print the full tables;
// these testing.B benches pin the same measurements into `go test -bench`.
//
//	Fig. 6a -> BenchmarkFig6aEncode      (throughput via -benchmem MB/s)
//	Fig. 6b -> BenchmarkFig6bDecode
//	Fig. 7  -> BenchmarkFig7RepairTraffic (blocks-moved reported as a metric)
//	Fig. 8a -> BenchmarkFig8aNewcomer
//	Fig. 8b -> BenchmarkFig8bHelper
//	Fig. 9  -> BenchmarkFig9WordCount    (simulated cluster job, real task logic)
//	Fig. 11 -> BenchmarkFig11ParallelRead
package carousel_test

import (
	"fmt"
	"testing"

	"carousel"
	"carousel/internal/bench"
	"carousel/internal/workload"
)

// benchKs mirrors the paper's x-axis; kept small here so `go test -bench=.`
// stays quick — cmd/codingbench sweeps the full range.
var benchKs = []int{2, 4, 6}

const benchMB = 1 << 20

// eachSeries runs fn as one sub-benchmark per (series, k) of the paper's
// Fig. 6-8 comparison. The four series are parameter points of one code —
// RS = Carousel(2k,k,k,k), MSR = Carousel(2k,k,2k-1,k) — so fn is written
// once. computeOnly keeps only the series whose helpers compute (d > k).
func eachSeries(b *testing.B, computeOnly bool, fn func(b *testing.B, code *carousel.Code, size int, data [][]byte)) {
	for _, k := range benchKs {
		f, err := bench.NewFamily(k)
		if err != nil {
			b.Fatal(err)
		}
		size := f.AlignBlockSize(benchMB)
		data := bench.RandomShards(k, size, int64(k))
		for _, s := range f {
			if computeOnly && s.Code.D() == s.Code.K() {
				continue
			}
			b.Run(fmt.Sprintf("%s/k=%d", s.Name, k), func(b *testing.B) { fn(b, s.Code, size, data) })
		}
	}
}

func BenchmarkFig6aEncode(b *testing.B) {
	eachSeries(b, false, func(b *testing.B, code *carousel.Code, size int, data [][]byte) {
		b.SetBytes(int64(code.K() * size))
		for i := 0; i < b.N; i++ {
			if _, err := code.Encode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig6bDecode(b *testing.B) {
	eachSeries(b, false, func(b *testing.B, code *carousel.Code, size int, data [][]byte) {
		blocks, err := code.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		// One data block lost: decode from blocks 1..k.
		avail := make([][]byte, len(blocks))
		copy(avail[1:code.K()+1], blocks[1:code.K()+1])
		b.SetBytes(int64(code.K() * size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := code.Decode(avail); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7RepairTraffic reports the repair traffic in block units as
// a custom metric (it is a property of the code, not a timing).
func BenchmarkFig7RepairTraffic(b *testing.B) {
	eachSeries(b, false, func(b *testing.B, code *carousel.Code, size int, _ [][]byte) {
		traffic := code.ReconstructionTraffic(size)
		for i := 0; i < b.N; i++ {
			_ = traffic
		}
		b.ReportMetric(float64(traffic)/float64(size), "blocks-moved")
	})
}

func BenchmarkFig8aNewcomer(b *testing.B) {
	eachSeries(b, false, func(b *testing.B, code *carousel.Code, size int, data [][]byte) {
		blocks, err := code.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		helpers := make([]int, code.D())
		chunks := make([][]byte, code.D())
		for i := range helpers {
			helpers[i] = i + 1 // block 0 is the one lost
			if chunks[i], err = code.HelperChunk(helpers[i], 0, blocks[helpers[i]]); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := code.RepairBlock(0, helpers, chunks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig8bHelper(b *testing.B) {
	eachSeries(b, true, func(b *testing.B, code *carousel.Code, size int, data [][]byte) {
		blocks, err := code.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := code.HelperChunk(1, 0, blocks[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9WordCount runs the simulated-cluster wordcount job (real
// task logic, simulated time) under RS and Carousel; the metric of
// interest is the reported sim-map-s, not ns/op.
func BenchmarkFig9WordCount(b *testing.B) {
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := carousel.New(12, 6, 6, 6) // RS(12,6) is the p = k, d = k point
	if err != nil {
		b.Fatal(err)
	}
	blockSize := benchMB / code.BlockAlign() * code.BlockAlign()
	data := workload.Text(6*blockSize, 9)
	run := func(b *testing.B, scheme carousel.Scheme) {
		var mapS, jobS float64
		for i := 0; i < b.N; i++ {
			sim := carousel.NewSim()
			cl := carousel.NewCluster(sim, 30, carousel.NodeSpec{
				DiskReadBW: 3.125 * benchMB, DiskWriteBW: 3.125 * benchMB,
				NetInBW: 3.9 * benchMB, NetOutBW: 3.9 * benchMB,
				Slots: 2, ComputeBW: 0.625 * benchMB,
			})
			fs := carousel.NewFS(cl, cl.Nodes())
			if _, err := fs.Write("text", data, blockSize, scheme); err != nil {
				b.Fatal(err)
			}
			eng := carousel.NewMapReduce(cl, fs, cl.Nodes(), carousel.MRCostSpec{
				TaskOverhead: 3, MapCPUFactor: 1, ReduceCPUFactor: 1,
			})
			res, err := eng.Run(carousel.WordCountJob("text", 6))
			if err != nil {
				b.Fatal(err)
			}
			mapS, jobS = res.AvgMapSeconds, res.JobSeconds
		}
		b.ReportMetric(mapS, "sim-map-s")
		b.ReportMetric(jobS, "sim-job-s")
	}
	b.Run("RS", func(b *testing.B) { run(b, carousel.SchemeCarousel{Code: rs}) })
	b.Run("Carousel_p12", func(b *testing.B) { run(b, carousel.SchemeCarousel{Code: code}) })
}

// BenchmarkFig11ParallelRead reports the simulated retrieval time of a
// file from capped datanodes under each scheme.
func BenchmarkFig11ParallelRead(b *testing.B) {
	const mbps = 1e6 / 8
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := carousel.New(12, 6, 6, 6) // RS(12,6) is the p = k, d = k point
	if err != nil {
		b.Fatal(err)
	}
	blockSize := benchMB / code.BlockAlign() * code.BlockAlign()
	data := workload.Text(6*blockSize, 11)
	run := func(b *testing.B, scheme carousel.Scheme, mode int) {
		var took float64
		for i := 0; i < b.N; i++ {
			sim := carousel.NewSim()
			cl := carousel.NewCluster(sim, 18, carousel.NodeSpec{DiskReadBW: 300 * mbps / 32})
			client := cl.AddNode("client", carousel.NodeSpec{NetInBW: 2500 * mbps / 32})
			fs := carousel.NewFS(cl, cl.Nodes()[:18])
			if _, err := fs.Write("f", data, blockSize, scheme); err != nil {
				b.Fatal(err)
			}
			rm := carousel.ReadSequential
			if mode == 1 {
				rm = carousel.ReadParallel
			}
			sim.Go("get", func(p *carousel.Proc) {
				res, err := fs.Read(p, client, "f", rm)
				if err != nil {
					b.Error(err)
					return
				}
				_ = res
				took = p.Now()
			})
			sim.Run()
		}
		b.ReportMetric(took, "sim-read-s")
	}
	b.Run("Replication3x_sequential", func(b *testing.B) {
		run(b, carousel.SchemeReplication{Copies: 3}, 0)
	})
	b.Run("RS_parallel", func(b *testing.B) { run(b, carousel.SchemeCarousel{Code: rs}, 1) })
	b.Run("Carousel_p10_parallel", func(b *testing.B) { run(b, carousel.SchemeCarousel{Code: code}, 1) })
}
