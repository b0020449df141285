// Reconstruction compares what it costs to regenerate one lost block under
// Reed-Solomon, product-matrix MSR, and Carousel codes with the same
// (n=12, k=6) storage overhead — the trade-off of the paper's Fig. 7. The
// three are parameter points of one code. Every repair is executed for
// real and verified against the lost block.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"carousel"
)

const blockSize = 10 * 100 * 1024 // aligned for every code below

func main() {
	shards := make([][]byte, 6)
	rng := rand.New(rand.NewSource(9))
	for i := range shards {
		shards[i] = make([]byte, blockSize)
		rng.Read(shards[i])
	}

	fmt.Printf("losing block 0 of an (n=12, k=6) stripe, %d KB blocks\n\n", blockSize/1024)
	fmt.Printf("%-28s %-9s %-14s %s\n", "code", "helpers", "traffic", "relative")
	fmt.Printf("%-28s %-9s %-14s %s\n", "----", "-------", "-------", "--------")

	// One code, three parameter points: p = k with d = k is systematic
	// Reed-Solomon (k whole blocks), p = k with d > k is product-matrix MSR
	// (d chunks of 1/alpha block each), and p = n keeps MSR's optimal
	// traffic while adding data parallelism 12.
	for _, pt := range []struct {
		name string
		d, p int
	}{
		{"RS(12,6)", 6, 6},
		{"MSR(12,6,10)", 10, 6},
		{"Carousel(12,6,10,12)", 10, 12},
	} {
		code, err := carousel.New(12, 6, pt.d, pt.p)
		if err != nil {
			log.Fatal(err)
		}
		blocks, err := code.Encode(shards)
		if err != nil {
			log.Fatal(err)
		}
		helpers := make([]int, pt.d)
		for i := range helpers {
			helpers[i] = i + 1
		}
		repaired, err := code.Repair(0, helpers, blocks)
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(repaired, blocks[0]) {
			log.Fatalf("%s repair mismatch", pt.name)
		}
		report(pt.name, pt.d, code.ReconstructionTraffic(blockSize))
	}

	fmt.Println("\nCarousel matches the MSR repair optimum d/(d-k+1) = 2 blocks while also")
	fmt.Println("letting 12 readers consume original data in parallel (RS and MSR: 6).")
}

func report(name string, helpers, traffic int) {
	fmt.Printf("%-28s %-9d %-14d %.2f blocks\n", name, helpers, traffic, float64(traffic)/float64(blockSize))
}
