//go:build !race

package codeplan_test

import (
	"testing"

	"carousel/internal/carousel"
)

// Behind !race: the race detector perturbs allocation counts (its
// sync.Pool drops a share of what is put back), and the regular suite
// runs this.

// TestRunParallelAllocatesNothing pins TestRunAllocatesNothing's
// contract above minParallelBytes, where RunParallel hands
// workpool.Parallel its stripe function: 256 KiB units of the
// (12,6,10,10) encode plan.
func TestRunParallelAllocatesNothing(t *testing.T) {
	c, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	plan := c.EncodePlan()
	units := func(n int) [][]byte {
		u := make([][]byte, n)
		for i := range u {
			u[i] = make([]byte, 256<<10)
		}
		return u
	}
	in, out := units(plan.NumIn()), units(plan.NumOut())
	if a := testing.AllocsPerRun(20, func() { plan.RunParallel(in, out, 4) }); a != 0 {
		t.Errorf("RunParallel allocates %v objects per call, want 0", a)
	}
}
