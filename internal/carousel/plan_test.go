package carousel

import (
	"testing"

	"carousel/internal/codeplan"
)

// TestDecodePlanSurvivingDataUnitsAreCopies pins the op-elision guarantee of
// the compiled decode schedules: every data unit that lives on a surviving
// block must be produced by a single COPY — zero GF multiplications — so the
// plan only spends kernel work on the units that were actually lost.
// Carousel scatters K = kU/p data units over each of the first p blocks, so
// "full data present" means each surviving block's chosen data units are in
// the input, not that whole blocks are data.
func TestDecodePlanSurvivingDataUnitsAreCopies(t *testing.T) {
	for _, p := range []struct{ n, k, d int }{{6, 3, 3}, {12, 6, 6}, {12, 6, 10}} {
		c, err := New(p.n, p.k, p.d, p.n)
		if err != nil {
			t.Fatalf("New(%d,%d,%d): %v", p.n, p.k, p.d, err)
		}
		for _, present := range [][]int{firstK(0, p.k), firstK(1, p.k), firstK(p.n-p.k, p.k)} {
			plan, err := c.Plan(present, nil)
			if err != nil {
				t.Fatalf("Plan(%v): %v", present, err)
			}
			kinds := plan.DstKinds()
			surviving := 0
			for _, b := range present {
				for j := range c.chosen[b] {
					g := b*c.kUnits + j // global data unit index
					if got := kinds[g]; got != codeplan.OpCopy {
						t.Fatalf("(%d,%d,%d) present %v: data unit %d of surviving block %d produced by %v, want COPY",
							p.n, p.k, p.d, present, j, b, got)
					}
					surviving++
				}
			}
			counts := plan.Counts()
			if counts.Copy < surviving {
				t.Fatalf("(%d,%d,%d) present %v: %d copies < %d surviving data units",
					p.n, p.k, p.d, present, counts.Copy, surviving)
			}
			// Sanity: the lost units do take GF work; the plan is not
			// trivially empty.
			if counts.Mul == 0 && counts.MulAdd == 0 {
				t.Fatalf("(%d,%d,%d) present %v: plan has no GF ops at all: %+v",
					p.n, p.k, p.d, present, counts)
			}
		}
	}
}

// firstK returns k consecutive block indices starting at lo.
func firstK(lo, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
