package carousel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// executePlan runs a plan the way a networked executor does: the Direct
// prefixes straight into the output, every range into its own scratch
// buffer, then Solve, which must leave that scratch as it landed. It
// reports the bytes it took from each block.
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
	for i, r := range plan.Ranges {
		if !bytes.Equal(fetched[i], blocks[r.Block][r.Off:r.Off+r.Len]) {
			t.Errorf("Solve wrote into fetched range %d = %+v", i, r)
		}
	}
	return took
}

// rangeBytes sums the plan's Ranges by block.
func rangeBytes(plan *ReadPlan) map[int]int {
	by := make(map[int]int)
	for _, r := range plan.Ranges {
		by[r.Block] += r.Len
	}
	return by
}

// checkScheme asserts the plan's scheme from its fetch list alone. A
// parallel plan reads every data-bearing block's prefix and no range. A
// replacement plan reads each missing data-bearing block's units from one
// data-free block (index >= p), BytesPerSource bytes of Ranges from each.
// A patch plan reads parity units only, so never a data prefix, and as
// many bytes as the missing blocks' prefixes.
func checkScheme(t *testing.T, plan *ReadPlan, p int) {
	t.Helper()
	missing := p - len(plan.Direct)
	by := rangeBytes(plan)
	switch plan.Mode {
	case "parallel":
		if missing != 0 || len(plan.Ranges) != 0 {
			t.Errorf("parallel plan with %d data-bearing blocks missing and ranges %v", missing, plan.Ranges)
		}
	case "replacement":
		if len(by) != missing {
			t.Errorf("replacement plan reads ranges of %d blocks (%v) for %d missing", len(by), by, missing)
		}
		for b, n := range by {
			if b < p || n != plan.BytesPerSource {
				t.Errorf("replacement block %d serves %d bytes: want a data-free block (>= %d) serving %d", b, n, p, plan.BytesPerSource)
			}
		}
	case "patch":
		total := 0
		for _, r := range plan.Ranges {
			if r.Block < p && r.Off < plan.BytesPerSource {
				t.Errorf("patch range %+v reads the data prefix of block %d", r, r.Block)
			}
			total += r.Len
		}
		if total != missing*plan.BytesPerSource {
			t.Errorf("patch plan reads %d bytes of ranges for %d missing prefixes of %d", total, missing, plan.BytesPerSource)
		}
	default:
		t.Errorf("plan mode %q", plan.Mode)
	}
}

// TestReadPlanIsExecutable: for every plan kind PlanRead produces —
// healthy, replacement (one and two losses), a lost spare, patch (p = n,
// and p < n with more losses than spares) and the baseline points (p = k)
// — the plan names its scheme and its fetch list has that scheme's shape,
// fetching the Direct prefixes and the Ranges and calling Solve
// reproduces the data from exactly TotalBytes without writing into what
// was fetched, the ranges are coalesced and ordered, and ReadInto and
// ParallelReadInto (the same plan over memory) agree without touching
// their input blocks. The 64 KiB-unit
// cases take the solve's parallel path, whose known inputs and unknown
// outputs are units of one output buffer.
func TestReadPlanIsExecutable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range []struct {
		name       string
		n, k, d, p int
		lost       []int
		ranges     int    // expected len(plan.Ranges); -1 = do not pin
		mode       string // expected plan.Mode
		unit       int    // bytes per unit
	}{
		{"healthy", 12, 6, 10, 10, nil, 0, "parallel", 24},
		{"replacement", 12, 6, 10, 10, []int{2}, 1, "replacement", 24},
		{"replacement, wrapped units", 12, 6, 10, 10, []int{9}, -1, "replacement", 24},
		{"two replacements", 12, 6, 10, 10, []int{0, 7}, -1, "replacement", 24},
		{"spare lost", 12, 6, 10, 10, []int{11}, 0, "parallel", 24},
		{"data and spare lost", 12, 6, 10, 10, []int{4, 10}, -1, "replacement", 24},
		{"patch", 12, 6, 10, 12, []int{5}, -1, "patch", 24},
		{"patch, two lost", 12, 6, 10, 12, []int{0, 1}, -1, "patch", 24},
		{"RS point", 12, 6, 6, 6, []int{0}, 1, "replacement", 24},
		{"MSR point", 12, 6, 10, 6, []int{3}, 1, "replacement", 24},
		{"patch once the spares are gone", 12, 6, 10, 10, []int{0, 1, 2, 10, 11}, -1, "patch", 24},
		{"patch at the n-k limit", 12, 6, 10, 10, []int{0, 1, 2, 3, 4, 5}, -1, "patch", 24},
		{"replacement, 64 KiB units", 12, 6, 10, 10, []int{2}, 1, "replacement", 64 << 10},
		{"two replacements, 64 KiB units", 12, 6, 10, 10, []int{0, 7}, -1, "replacement", 64 << 10},
		{"patch, 64 KiB units", 12, 6, 10, 12, []int{5}, -1, "patch", 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCode(t, tc.n, tc.k, tc.d, tc.p)
			size := c.UnitsPerBlock() * tc.unit
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
			if plan.Mode != tc.mode {
				t.Errorf("plan mode %q, want %q", plan.Mode, tc.mode)
			}
			checkScheme(t, plan, tc.p)
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
			for _, n := range took {
				total += n
			}
			if total != plan.TotalBytes || total != tc.k*size {
				t.Errorf("the executable plan moves %d bytes, TotalBytes says %d, want k*size = %d", total, plan.TotalBytes, tc.k*size)
			}

			before := make([][]byte, len(have))
			for i, b := range have {
				before[i] = append([]byte(nil), b...)
			}
			for name, read := range map[string]func([]byte) error{
				"ReadInto":         func(out []byte) error { return plan.ReadInto(have, out) },
				"ParallelReadInto": func(out []byte) error { return c.ParallelReadInto(have, out) },
			} {
				out = dirty(tc.k * size)
				if err := read(out); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(out, flatten(data)) {
					t.Fatalf("%s differs from the data", name)
				}
				if !equalBlocks(have, before) {
					t.Errorf("%s wrote into its input blocks", name)
				}
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
// solve: with the unit tables pooled per solver and the known data read
// from the output as inputs of the one compiled map, a warm planned read's
// Solve allocates a constant few bytes whatever the block size.
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

// TestReadIntoRejectsBadArguments: a wrong block count, a block the plan
// reads that is missing or short, or a wrong output size is reported
// before anything is written.
func TestReadIntoRejectsBadArguments(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 10)
	size := c.UnitsPerBlock() * 4
	blocks, err := c.Encode(randomShards(rand.New(rand.NewSource(73)), 6, size))
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
	spare := plan.Ranges[0].Block
	shortened := func(b int) [][]byte {
		have := append([][]byte(nil), blocks...)
		have[b] = have[b][:size-1]
		return have
	}
	out := dirty(6 * size)
	for name, call := range map[string]func() error{
		"too few blocks":      func() error { return plan.ReadInto(blocks[:11], out) },
		"short direct block":  func() error { return plan.ReadInto(shortened(0), out) },
		"short range block":   func() error { return plan.ReadInto(shortened(spare), out) },
		"short output":        func() error { return plan.ReadInto(blocks, out[:len(out)-1]) },
		"missing range block": func() error { have := shortened(spare); have[spare] = nil; return plan.ReadInto(have, out) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: ReadInto accepted it", name)
		}
	}
	if !isDirty(out) {
		t.Error("a rejected ReadInto wrote into its output")
	}
}

// TestDegradedPlanReadAllocs pins what a warm degraded PlanRead allocates
// at the benchmark's (12,6,10,10) with one data-bearing block lost:
// nothing. Its plan was memoized by the first call, and a hit builds its
// key on the stack.
func TestDegradedPlanReadAllocs(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 10)
	size := c.UnitsPerBlock() * 64
	avail := make([]bool, 12)
	for i := range avail {
		avail[i] = i != 2
	}
	plan := func() {
		if _, err := c.PlanRead(avail, size); err != nil {
			t.Fatal(err)
		}
	}
	plan() // build and memoize the plan
	if n := testing.AllocsPerRun(100, plan); n != 0 {
		t.Errorf("a warm degraded PlanRead allocates %.0f times, want 0", n)
	}
}

// TestPlanReadIsMemoized: PlanRead hands every caller that plans the same
// availability and block size the same plan, a different block size a
// plan of its own, and an availability of fewer than k blocks
// ErrTooFewBlocks however often it is asked.
func TestPlanReadIsMemoized(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 10)
	size := c.UnitsPerBlock() * 64
	avail := make([]bool, 12)
	for i := range avail {
		avail[i] = i != 2
	}
	plan := func(avail []bool, size int) *ReadPlan {
		t.Helper()
		p, err := c.PlanRead(avail, size)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := plan(avail, size)
	if again := plan(slices.Clone(avail), size); again != first {
		t.Error("two plans of one availability and block size are different plans")
	}
	other := plan(avail, 2*size)
	if other == first {
		t.Fatal("a plan for another block size is the same plan")
	}
	if other.TotalBytes != 2*first.TotalBytes || other.Ranges[0].Len != 2*first.Ranges[0].Len {
		t.Errorf("a plan for twice the block size moves %d bytes in ranges of %d, want twice %d and %d",
			other.TotalBytes, other.Ranges[0].Len, first.TotalBytes, first.Ranges[0].Len)
	}
	few := make([]bool, 12)
	for i := range 5 {
		few[i] = true
	}
	for range 2 {
		if p, err := c.PlanRead(few, size); !errors.Is(err, ErrTooFewBlocks) || p != nil {
			t.Fatalf("a plan on 5 of 12 blocks: %v, %v; want ErrTooFewBlocks", p, err)
		}
	}
}

// TestPlanParallelismAllocs pins ReadPlan.Parallelism, which the
// simulator reads for every stripe it plans, at zero allocations for the
// healthy plan and the replacement and patch plans alike.
func TestPlanParallelismAllocs(t *testing.T) {
	for _, p := range []int{10, 12} {
		c := mustCode(t, 12, 6, 10, p)
		size := c.UnitsPerBlock() * 64
		avail := make([]bool, 12)
		for i := range avail {
			avail[i] = true
		}
		healthy, err := c.PlanRead(avail, size)
		if err != nil {
			t.Fatal(err)
		}
		avail[2] = false
		degraded, err := c.PlanRead(avail, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []*ReadPlan{healthy, degraded} {
			if n := testing.AllocsPerRun(100, func() { _ = plan.Parallelism() }); n != 0 {
				t.Errorf("p=%d: Parallelism allocates %.0f times, want 0", p, n)
			}
		}
	}
}
