package codeplan_test

import (
	"math/rand"
	"runtime"
	"testing"

	"carousel/internal/carousel"
	"carousel/internal/codeplan"
)

// unitBytes is the benchmark fixture's unit: a 43,680-byte block of a
// Carousel(12,6,10,10) code holds 5 units.
const unitBytes = 8736

// encodeFixture returns the (12,6,10,10) encode plan with random inputs
// and dirty outputs of unitBytes each.
func encodeFixture(tb testing.TB) (*codeplan.Plan, [][]byte, [][]byte) {
	tb.Helper()
	c, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		tb.Fatal(err)
	}
	plan := c.EncodePlan()
	rng := rand.New(rand.NewSource(9))
	units := func(n int) [][]byte {
		u := make([][]byte, n)
		for i := range u {
			u[i] = make([]byte, unitBytes)
			rng.Read(u[i])
		}
		return u
	}
	return plan, units(plan.NumIn()), units(plan.NumOut())
}

// TestRunAllocatesNothing pins the executor's allocation-free contract at
// the store's encode shape: the groups, their coefficient forms and the
// tile are all fixed at Compile.
func TestRunAllocatesNothing(t *testing.T) {
	plan, in, out := encodeFixture(t)
	if a := testing.AllocsPerRun(20, func() { plan.Run(in, out) }); a != 0 {
		t.Errorf("Run allocates %v objects per call, want 0", a)
	}
	workers := runtime.GOMAXPROCS(0)
	if a := testing.AllocsPerRun(20, func() { plan.RunParallel(in, out, workers) }); a != 0 {
		t.Errorf("RunParallel allocates %v objects per call, want 0", a)
	}
}

// TestGroupsMultiplyTheNonzeros checks that grouping rows under a shared
// source list costs at most 5% multiplies by zero, at a dense encode, the
// half-dense encode and decode of a Kronecker-expanded point and a sparse
// one, where a dense kernel over every source would multiply 2x and 6x
// more than the plan's nonzeros.
func TestGroupsMultiplyTheNonzeros(t *testing.T) {
	type point struct{ n, k, d, p int }
	for _, tc := range []struct {
		name string
		pt   point
		plan func(*carousel.Code) (*codeplan.Plan, error)
	}{
		{"encode", point{12, 6, 10, 10}, nil},
		{"encode", point{12, 6, 10, 12}, nil},
		{"decode", point{12, 6, 10, 12}, func(c *carousel.Code) (*codeplan.Plan, error) {
			return c.Plan([]int{2, 3, 4, 5, 6, 7}, nil)
		}},
		{"encode", point{14, 10, 10, 12}, nil},
	} {
		c, err := carousel.New(tc.pt.n, tc.pt.k, tc.pt.d, tc.pt.p)
		if err != nil {
			t.Fatal(err)
		}
		plan := c.EncodePlan()
		if tc.plan != nil {
			if plan, err = tc.plan(c); err != nil {
				t.Fatal(err)
			}
		}
		counts := plan.Counts()
		nnz := counts.Mul + counts.MulAdd
		got := plan.KernelMultiplies()
		t.Logf("%v %s: %d nonzeros, %d kernel multiplies", tc.pt, tc.name, nnz, got)
		if got < nnz || 100*got > 105*nnz {
			t.Errorf("%v %s: kernel multiplies %d for %d nonzeros, want within [1, 1.05]x", tc.pt, tc.name, got, nnz)
		}
	}
}

// BenchmarkEncodeRun is the codeplan layer of the store's write path: one
// stripe's encode at the benchmark fixture's shape, counted in user bytes
// (30 data units), as codeplan.encode_run_gbps is.
func BenchmarkEncodeRun(b *testing.B) {
	plan, in, out := encodeFixture(b)
	b.SetBytes(int64(plan.NumIn() * unitBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Run(in, out)
	}
}
