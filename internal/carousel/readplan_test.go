package carousel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// executePlan runs a plan the way a networked executor does: the Direct
// prefixes straight into the output, every range into its own scratch
// buffer, then Solve. It reports the bytes it took from each block.
func executePlan(t *testing.T, c *Code, plan *ReadPlan, blocks [][]byte, out []byte) []int {
	t.Helper()
	took := make([]int, c.N())
	per := plan.BytesPerSource
	for _, i := range plan.Direct {
		copy(out[i*per:(i+1)*per], blocks[i][:per])
		took[i] += per
	}
	fetched := make([][]byte, len(plan.Ranges))
	for i, r := range plan.Ranges {
		fetched[i] = append([]byte(nil), blocks[r.Block][r.Off:r.Off+r.Len]...)
		took[r.Block] += r.Len
	}
	if err := plan.Solve(fetched, out); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return took
}

// TestReadPlanIsExecutable: for every plan kind PlanRead produces —
// healthy, replacement (one and two losses), a lost spare, patch (p = n,
// and p < n with more losses than spares) and the baseline points (p = k)
// — fetching the Direct prefixes and the Ranges and calling Solve
// reproduces the data from exactly TotalBytes, the ranges are coalesced
// and ordered, and ParallelReadInto (the same plan over memory) agrees
// without touching its input blocks.
func TestReadPlanIsExecutable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range []struct {
		name       string
		n, k, d, p int
		lost       []int
		ranges     int // expected len(plan.Ranges); -1 = do not pin
	}{
		{"healthy", 12, 6, 10, 10, nil, 0},
		{"replacement", 12, 6, 10, 10, []int{2}, 1},
		{"replacement, wrapped units", 12, 6, 10, 10, []int{9}, -1},
		{"two replacements", 12, 6, 10, 10, []int{0, 7}, -1},
		{"spare lost", 12, 6, 10, 10, []int{11}, 0},
		{"data and spare lost", 12, 6, 10, 10, []int{4, 10}, -1},
		{"patch", 12, 6, 10, 12, []int{5}, -1},
		{"patch, two lost", 12, 6, 10, 12, []int{0, 1}, -1},
		{"RS point", 12, 6, 6, 6, []int{0}, 1},
		{"MSR point", 12, 6, 10, 6, []int{3}, 1},
		{"patch once the spares are gone", 12, 6, 10, 10, []int{0, 1, 2, 10, 11}, -1},
		{"patch at the n-k limit", 12, 6, 10, 10, []int{0, 1, 2, 3, 4, 5}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCode(t, tc.n, tc.k, tc.d, tc.p)
			size := c.UnitsPerBlock() * 24
			data := randomShards(rng, tc.k, size)
			blocks, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			avail := make([]bool, tc.n)
			for i := range avail {
				avail[i] = true
			}
			have := append([][]byte(nil), blocks...)
			for _, l := range tc.lost {
				avail[l], have[l] = false, nil
			}
			plan, err := c.PlanRead(avail, size)
			if err != nil {
				t.Fatal(err)
			}
			if tc.ranges >= 0 && len(plan.Ranges) != tc.ranges {
				t.Errorf("plan has %d ranges (%v), want %d", len(plan.Ranges), plan.Ranges, tc.ranges)
			}
			for i, r := range plan.Ranges {
				if !avail[r.Block] || r.Len <= 0 || r.Off < 0 || r.Off+r.Len > size {
					t.Errorf("range %d = %+v is not inside an available block of %d bytes", i, r, size)
				}
				if i == 0 {
					continue
				}
				prev := plan.Ranges[i-1]
				if r.Block < prev.Block || r.Block == prev.Block && r.Off <= prev.Off+prev.Len {
					t.Errorf("ranges %+v and %+v are out of order or not coalesced", prev, r)
				}
			}

			out := dirty(tc.k * size)
			took := executePlan(t, c, plan, have, out)
			if !bytes.Equal(out, flatten(data)) {
				t.Fatal("executing the plan does not reproduce the data")
			}
			total := 0
			for b, n := range took {
				total += n
				want := plan.Patch[b]
				for _, dir := range plan.Direct {
					if dir == b {
						want += plan.BytesPerSource
					}
				}
				for _, repl := range plan.Replacements {
					if repl == b {
						want += plan.BytesPerSource
					}
				}
				if n != want {
					t.Errorf("block %d: the executable plan takes %d bytes, the accounting fields say %d", b, n, want)
				}
			}
			if total != plan.TotalBytes || total != tc.k*size {
				t.Errorf("the executable plan moves %d bytes, TotalBytes says %d, want k*size = %d", total, plan.TotalBytes, tc.k*size)
			}

			before := make([][]byte, len(have))
			for i, b := range have {
				before[i] = append([]byte(nil), b...)
			}
			out = dirty(tc.k * size)
			if err := c.ParallelReadInto(have, out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, flatten(data)) {
				t.Fatal("ParallelReadInto differs from the data")
			}
			if !equalBlocks(have, before) {
				t.Error("ParallelReadInto wrote into its input blocks")
			}
		})
	}
}

// TestPlanReadNeverNeedsWholeBlocks enforces the invariant the read path
// rests on: for every code point the repo builds and every availability
// set of at least k blocks, PlanRead finds a plan that moves exactly k
// blocks' worth of bytes, with Ranges empty exactly when all p
// data-bearing blocks are present and Parallelism counting the blocks it
// reads; below k it reports ErrTooFewBlocks. One sampled set per loss
// count is also executed through ParallelReadInto.
func TestPlanReadNeverNeedsWholeBlocks(t *testing.T) {
	for _, pt := range [][4]int{
		{3, 2, 2, 2}, {3, 2, 2, 3}, {4, 2, 3, 3}, {6, 3, 3, 6}, {6, 3, 5, 6},
		{12, 6, 6, 6}, {12, 6, 6, 12}, {12, 6, 10, 8}, {12, 6, 10, 10},
		{12, 6, 10, 12}, {14, 10, 10, 12},
	} {
		t.Run(fmt.Sprint(pt), func(t *testing.T) {
			t.Parallel()
			n, k, p := pt[0], pt[1], pt[3]
			rng := rand.New(rand.NewSource(int64(74 + 100*n + p)))
			c := mustCode(t, n, k, pt[2], p)
			size := c.UnitsPerBlock() * 8
			data := randomShards(rng, k, size)
			blocks, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			// sample[l] is the one set with l blocks lost that is executed.
			sample := make([]int, n-k+1)
			seen := make([]int, n-k+1)
			avail := make([]bool, n)
			for set := 0; set < 1<<n; set++ {
				have, dataBearing := 0, 0
				for i := range avail {
					avail[i] = set&(1<<i) != 0
					if avail[i] {
						have++
						if i < p {
							dataBearing++
						}
					}
				}
				plan, err := c.PlanRead(avail, size)
				if have < k {
					if !errors.Is(err, ErrTooFewBlocks) {
						t.Fatalf("avail %b: err = %v, want ErrTooFewBlocks", set, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("avail %b: %v", set, err)
				}
				if plan.TotalBytes != k*size {
					t.Fatalf("avail %b: plan moves %d bytes, want k*size = %d", set, plan.TotalBytes, k*size)
				}
				if healthy := dataBearing == p; healthy != (len(plan.Ranges) == 0) {
					t.Fatalf("avail %b: %d ranges with %d of %d data-bearing blocks present", set, len(plan.Ranges), dataBearing, p)
				}
				sources := make(map[int]bool)
				for _, b := range plan.Direct {
					sources[b] = true
				}
				for _, r := range plan.Ranges {
					sources[r.Block] = true
				}
				if plan.Parallelism() != len(sources) {
					t.Fatalf("avail %b: Parallelism %d, the plan reads %d blocks", set, plan.Parallelism(), len(sources))
				}
				// Reservoir-sample one set per loss count.
				lost := n - have
				if seen[lost]++; rng.Intn(seen[lost]) == 0 {
					sample[lost] = set
				}
			}
			want := flatten(data)
			for lost, set := range sample {
				in := make([][]byte, n)
				for i := range in {
					if set&(1<<i) != 0 {
						in[i] = blocks[i]
					}
				}
				out := dirty(k * size)
				if err := c.ParallelReadInto(in, out); err != nil {
					t.Fatalf("avail %b: %v", set, err)
				}
				if !bytes.Equal(out, want) {
					t.Fatalf("%d lost (avail %b): ParallelReadInto differs from the data", lost, set)
				}
			}
		})
	}
}

// TestReadPlanSolveRejectsBadArguments: a wrong output size, range count
// or range length is reported before anything is written.
func TestReadPlanSolveRejectsBadArguments(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 10)
	size := c.UnitsPerBlock() * 4
	avail := make([]bool, 12)
	for i := range avail {
		avail[i] = i != 2
	}
	plan, err := c.PlanRead(avail, size)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]byte{make([]byte, plan.Ranges[0].Len)}
	out := dirty(6 * size)
	for name, call := range map[string]func() error{
		"short output": func() error { return plan.Solve(good, out[:len(out)-1]) },
		"no ranges":    func() error { return plan.Solve(nil, out) },
		"short range":  func() error { return plan.Solve([][]byte{good[0][:1]}, out) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: Solve accepted it", name)
		}
	}
	if !isDirty(out) {
		t.Error("a rejected Solve wrote into its output")
	}
}

// TestDegradedSolveAllocatesNothingBlockSized pins the allocation-free
// solve: with the row tables pooled per solver and the known data
// eliminated into the fetched scratch itself, a warm planned read's Solve
// allocates a constant few bytes whatever the block size.
func TestDegradedSolveAllocatesNothingBlockSized(t *testing.T) {
	c, err := New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	size := c.UnitsPerBlock() * 8192
	blocks, err := c.Encode(randomShards(rand.New(rand.NewSource(72)), 6, size))
	if err != nil {
		t.Fatal(err)
	}
	avail := make([]bool, 12)
	for i := range avail {
		avail[i] = i != 2
	}
	plan, err := c.PlanRead(avail, size)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 6*size)
	fetched := make([][]byte, len(plan.Ranges))
	for i, r := range plan.Ranges {
		fetched[i] = make([]byte, r.Len)
	}
	run := func() {
		for i, r := range plan.Ranges {
			copy(fetched[i], blocks[r.Block][r.Off:r.Off+r.Len])
		}
		if err := plan.Solve(fetched, out); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n > 2 {
		t.Errorf("a warm degraded Solve allocates %.0f times, want at most 2 small ones", n)
	}
}
