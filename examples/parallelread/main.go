// Parallelread compares file retrieval from a simulated cluster whose
// datanodes cap reads at 300 Mbps (the setting of the paper's Fig. 11):
// sequential block-by-block download of a replicated file, a parallel read
// of the k data blocks of an RS file, and the (12,6,10,10) Carousel
// parallel read from p=10 blocks — with and without a lost block.
package main

import (
	"fmt"
	"log"

	"carousel"
	"carousel/internal/workload"
)

const (
	mbps      = 1e6 / 8
	blockSize = 16 * 1000 * 100 // 1.6 MB, aligned for the carousel code
	fileSize  = 6 * blockSize
)

func main() {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		log.Fatal(err)
	}
	if blockSize%code.BlockAlign() != 0 {
		log.Fatalf("block size %d not aligned to %d", blockSize, code.BlockAlign())
	}
	rs, err := carousel.New(12, 6, 6, 6) // RS(12,6) is the p = k, d = k point
	if err != nil {
		log.Fatal(err)
	}
	data := workload.Text(fileSize, 1)

	type variant struct {
		name   string
		scheme carousel.Scheme
		mode   int // 0 = sequential, 1 = parallel
	}
	variants := []variant{
		{"3x replication, sequential get", carousel.SchemeReplication{Copies: 3}, 0},
		{"RS(12,6), parallel (6 streams)", carousel.SchemeCarousel{Code: rs}, 1},
		{"Carousel(12,6,10,10), parallel (10 streams)", carousel.SchemeCarousel{Code: code}, 1},
	}
	for _, withFailure := range []bool{false, true} {
		label := "no failure"
		if withFailure {
			label = "one data block lost"
		}
		fmt.Printf("--- %s ---\n", label)
		for _, v := range variants {
			sim := carousel.NewSim()
			cl := carousel.NewCluster(sim, 18, carousel.NodeSpec{DiskReadBW: 300 * mbps})
			client := cl.AddNode("client", carousel.NodeSpec{NetInBW: 2500 * mbps})
			fs := carousel.NewFS(cl, cl.Nodes()[:18])
			if _, err := fs.Write("file", data, blockSize, v.scheme); err != nil {
				log.Fatal(err)
			}
			if withFailure {
				if _, isRepl := v.scheme.(carousel.SchemeReplication); isRepl {
					if err := fs.FailReplica("file", 0, 0, 0); err != nil {
						log.Fatal(err)
					}
				} else if err := fs.FailBlock("file", 0, 0); err != nil {
					log.Fatal(err)
				}
			}
			mode := carousel.ReadSequential
			if v.mode == 1 {
				mode = carousel.ReadParallel
			}
			var took float64
			sim.Go("get", func(p *carousel.Proc) {
				res, err := fs.Read(p, client, "file", mode)
				if err != nil {
					log.Fatal(err)
				}
				if len(res.Data) != fileSize {
					log.Fatalf("short read: %d bytes", len(res.Data))
				}
				took = p.Now()
			})
			sim.Run()
			fmt.Printf("  %-46s %7.2f s\n", v.name, took)
		}
	}
	fmt.Println("\nCarousel reads original data from 10 servers at once; RS is limited to")
	fmt.Println("its 6 data blocks, and the sequential get pays for every block in turn.")
}
