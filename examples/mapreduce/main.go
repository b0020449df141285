// Mapreduce runs a real wordcount job over a simulated 30-node Hadoop-style
// cluster, comparing data stored with systematic RS(12,6) against a
// (12,6,10,12) Carousel code. With RS, only the 6 data blocks host map
// tasks; with Carousel all 12 blocks carry original data, so twice as many
// map tasks each process half the bytes — the mechanism behind the paper's
// Fig. 9.
package main

import (
	"fmt"
	"log"

	"carousel"
	"carousel/internal/workload"
)

const mb = 1 << 20

func main() {
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := carousel.New(12, 6, 6, 6) // RS(12,6) is the p = k, d = k point
	if err != nil {
		log.Fatal(err)
	}
	blockSize := 16 * mb / code.BlockAlign() * code.BlockAlign()
	data := workload.Text(6*blockSize, 7)
	fmt.Printf("input: %d MB of text in 6 blocks' worth of data\n\n", len(data)/mb)

	run := func(name string, scheme carousel.Scheme) *carousel.MRResult {
		sim := carousel.NewSim()
		cl := carousel.NewCluster(sim, 30, carousel.NodeSpec{
			DiskReadBW:  100 * mb / 32,
			DiskWriteBW: 100 * mb / 32,
			NetInBW:     125 * mb / 32,
			NetOutBW:    125 * mb / 32,
			Slots:       2,
			ComputeBW:   20 * mb / 32,
		})
		fs := carousel.NewFS(cl, cl.Nodes())
		if _, err := fs.Write("text", data, blockSize, scheme); err != nil {
			log.Fatal(err)
		}
		eng := carousel.NewMapReduce(cl, fs, cl.Nodes(), carousel.MRCostSpec{
			TaskOverhead: 3, MapCPUFactor: 1, ReduceCPUFactor: 1,
		})
		res, err := eng.Run(carousel.WordCountJob("text", 6))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %2d map tasks (all data-local: %v)\n", name, res.MapTasks, res.LocalTasks == res.MapTasks)
		fmt.Printf("%-22s avg map %6.2f s, avg reduce %6.2f s, job %6.2f s\n\n",
			"", res.AvgMapSeconds, res.AvgReduceSeconds, res.JobSeconds)
		return res
	}

	rsRes := run("RS(12,6):", carousel.SchemeCarousel{Code: rs})
	carRes := run("Carousel(12,6,10,12):", carousel.SchemeCarousel{Code: code})

	// The computation itself is identical: same word counts either way.
	if len(rsRes.Output) != len(carRes.Output) {
		log.Fatal("job outputs differ between schemes")
	}
	for i := range rsRes.Output {
		if rsRes.Output[i] != carRes.Output[i] {
			log.Fatal("job outputs differ between schemes")
		}
	}
	fmt.Printf("outputs identical (%d distinct words); map time saved: %.1f%%\n",
		len(rsRes.Output), 100*(1-carRes.AvgMapSeconds/rsRes.AvgMapSeconds))
}
