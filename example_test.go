package carousel_test

import (
	"bytes"
	"fmt"
	"log"

	"carousel"
)

// Example demonstrates the core Carousel flow: encode, observe the data
// layout, lose blocks, read in parallel, repair with optimal traffic.
func Example() {
	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		log.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789"), 1200) // 12000 bytes
	shards, blockSize, err := carousel.Split(data, code.K(), code.BlockAlign())
	if err != nil {
		log.Fatal(err)
	}
	blocks, err := code.Encode(shards)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blocks: %d, data-bearing: %d\n", len(blocks), code.P())
	lo, hi := code.DataRange(0, blockSize)
	fmt.Printf("block 0 holds file bytes [%d, %d) verbatim\n", lo, hi)

	// Lose the tolerance budget and read back.
	for _, i := range []int{0, 2, 4, 6, 8, 10} {
		blocks[i] = nil
	}
	out, err := code.ParallelRead(blocks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %v\n", bytes.Equal(out[:len(data)], data))
	fmt.Printf("repair traffic: %.1f blocks (RS would move %d)\n",
		float64(code.ReconstructionTraffic(blockSize))/float64(blockSize), code.K())
	// Output:
	// blocks: 12, data-bearing: 12
	// block 0 holds file bytes [0, 1000) verbatim
	// recovered: true
	// repair traffic: 2.0 blocks (RS would move 6)
}

// ExampleNew_reedSolomonBase shows the d = k configuration, which uses a
// Reed-Solomon base: same parallelism benefit, classic k-block repair.
func ExampleNew_reedSolomonBase() {
	code, err := carousel.New(6, 3, 3, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("carousel(%d,%d,%d,%d): %d units per block, %d of them data\n",
		code.N(), code.K(), code.D(), code.P(),
		code.UnitsPerBlock(), code.DataUnitsPerBlock())
	// Output:
	// carousel(6,3,3,6): 2 units per block, 1 of them data
}

// ExampleCode_PlanRead inspects how a degraded read will be served before
// moving any bytes.
func ExampleCode_PlanRead() {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		log.Fatal(err)
	}
	blockSize := 100 * code.BlockAlign()
	avail := make([]bool, 12)
	for i := range avail {
		avail[i] = true
	}
	avail[3] = false // one data-bearing block lost
	plan, err := code.PlanRead(avail, blockSize)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel sources: %d\n", plan.Parallelism())
	// One block lost: every range the plan fetches is on its replacement.
	fmt.Printf("replacement for block 3: block %d\n", plan.Ranges[0].Block)
	fmt.Printf("total bytes fetched: %d (the original data is %d)\n",
		plan.TotalBytes, 6*blockSize)
	// Output:
	// parallel sources: 10
	// replacement for block 3: block 10
	// total bytes fetched: 3000 (the original data is 3000)
}
