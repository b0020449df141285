package carousel

import (
	"bytes"
	"math/rand"
	"testing"

	"carousel/internal/msr"
	"carousel/internal/reedsolomon"
)

// The paper's baselines are parameter points of the Carousel code: the
// construction expands a systematic base code and remaps p >= k blocks to
// carry data, so at p = k it hands the base code back. These two tables
// are the evidence for that — byte for byte against the base-code packages
// — and so for everything outside this package that builds its Reed-Solomon
// and MSR baselines with New(n, k, k, k) and New(n, k, d, k): the
// simulator's one coded scheme, bench.NewFamily, the examples.

// sampleKSubsets returns the first-k, last-k and a few random k-subsets of
// [0, n), each sorted.
func sampleKSubsets(rng *rand.Rand, n, k int) [][]int {
	first, last := make([]int, k), make([]int, k)
	for i := range first {
		first[i], last[i] = i, n-k+i
	}
	subsets := [][]int{first, last}
	for s := 0; s < 4; s++ {
		pick := rng.Perm(n)[:k]
		avail := make([]bool, n)
		for _, i := range pick {
			avail[i] = true
		}
		sorted := make([]int, 0, k)
		for i, ok := range avail {
			if ok {
				sorted = append(sorted, i)
			}
		}
		subsets = append(subsets, sorted)
	}
	return subsets
}

func equalBlocks(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestRSPointIsReedSolomon(t *testing.T) {
	const blockSize = 1 << 10
	for _, tt := range []struct{ n, k int }{{3, 2}, {9, 6}, {12, 6}, {14, 10}, {20, 10}} {
		point := mustCode(t, tt.n, tt.k, tt.k, tt.k)
		ref, err := reedsolomon.New(tt.n, tt.k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100*tt.n + tt.k)))
		data := randomShards(rng, tt.k, blockSize)

		if u := point.UnitsPerBlock(); u != 1 {
			t.Errorf("(%d,%d): %d units per block, want 1 (no expansion left at p = k)", tt.n, tt.k, u)
		}
		if got, want := point.ReconstructionTraffic(blockSize), ref.ReconstructionTraffic(blockSize); got != want {
			t.Errorf("(%d,%d): ReconstructionTraffic = %d, reedsolomon's %d", tt.n, tt.k, got, want)
		}
		blocks, err := point.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		refBlocks, err := ref.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !equalBlocks(blocks, refBlocks) {
			t.Fatalf("(%d,%d): Encode differs from reedsolomon's", tt.n, tt.k)
		}
		for _, subset := range sampleKSubsets(rng, tt.n, tt.k) {
			avail := make([][]byte, tt.n)
			for _, i := range subset {
				avail[i] = blocks[i]
			}
			got, err := point.Decode(avail)
			if err != nil {
				t.Fatalf("(%d,%d): Decode from %v: %v", tt.n, tt.k, subset, err)
			}
			want, err := ref.Decode(avail)
			if err != nil {
				t.Fatal(err)
			}
			if !equalBlocks(got, want) || !equalBlocks(got, data) {
				t.Fatalf("(%d,%d): Decode from %v differs from reedsolomon's", tt.n, tt.k, subset)
			}
		}

		// A read with data block 0 down is the systematic degraded read:
		// the other k-1 data blocks verbatim plus one parity block, k
		// blocks on the wire.
		available := make([]bool, tt.n)
		for i := 1; i < tt.n; i++ {
			available[i] = true
		}
		plan, err := point.PlanRead(available, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Direct) != tt.k-1 || plan.Mode != "replacement" {
			t.Errorf("(%d,%d): degraded plan %+v (mode %q), want %d direct and 1 replacement", tt.n, tt.k, plan, plan.Mode, tt.k-1)
		}
		checkScheme(t, plan, tt.k) // block 0's units come from one parity block
		if plan.TotalBytes != tt.k*blockSize {
			t.Errorf("(%d,%d): degraded read moves %d bytes, want k blocks = %d", tt.n, tt.k, plan.TotalBytes, tt.k*blockSize)
		}
	}
}

func TestMSRPointIsProductMatrixMSR(t *testing.T) {
	for _, tt := range []struct{ n, k, d int }{{4, 2, 3}, {6, 3, 4}, {12, 6, 10}, {12, 6, 11}, {20, 10, 19}} {
		point := mustCode(t, tt.n, tt.k, tt.d, tt.k)
		ref, err := msr.New(tt.n, tt.k, tt.d)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(10000*tt.n + 100*tt.k + tt.d)))
		blockSize := 64 * ref.Alpha()
		data := randomShards(rng, tt.k, blockSize)

		if u := point.UnitsPerBlock(); u != ref.Alpha() {
			t.Errorf("(%d,%d,%d): %d units per block, want alpha = %d", tt.n, tt.k, tt.d, u, ref.Alpha())
		}
		if got, want := point.ReconstructionTraffic(blockSize), ref.ReconstructionTraffic(blockSize); got != want {
			t.Errorf("(%d,%d,%d): ReconstructionTraffic = %d, msr's %d", tt.n, tt.k, tt.d, got, want)
		}
		blocks, err := point.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		refBlocks, err := ref.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !equalBlocks(blocks, refBlocks) {
			t.Fatalf("(%d,%d,%d): Encode differs from msr's", tt.n, tt.k, tt.d)
		}
		for f := 0; f < tt.n; f++ {
			// A rotating helper set, so every (helper, failed) pair of the
			// code is compared over the table.
			var helpers []int
			for i := 1; len(helpers) < tt.d; i++ {
				helpers = append(helpers, (f+i)%tt.n)
			}
			chunks := make([][]byte, tt.d)
			for i, h := range helpers {
				if chunks[i], err = point.HelperChunk(h, f, blocks[h]); err != nil {
					t.Fatal(err)
				}
				want, err := ref.HelperChunk(h, f, blocks[h])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(chunks[i], want) {
					t.Fatalf("(%d,%d,%d): HelperChunk(%d, %d) differs from msr's", tt.n, tt.k, tt.d, h, f)
				}
			}
			got, err := point.RepairBlock(f, helpers, chunks)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.RepairBlock(f, helpers, chunks)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(got, blocks[f]) {
				t.Fatalf("(%d,%d,%d): RepairBlock(%d) differs from msr's", tt.n, tt.k, tt.d, f)
			}
		}
	}
}
