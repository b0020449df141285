package reedsolomon

import "testing"

// TestDecodePlanFullDataPresentIsCopyOnly pins identity-row elision on the
// systematic code: when every data block survives, the decode matrix is the
// identity, so the compiled plan must be k COPY ops and perform zero GF
// multiplications.
func TestDecodePlanFullDataPresentIsCopyOnly(t *testing.T) {
	for _, p := range []struct{ n, k int }{{6, 3}, {12, 6}, {16, 8}} {
		c, err := New(p.n, p.k)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", p.n, p.k, err)
		}
		present := make([]int, p.k)
		for i := range present {
			present[i] = i // all data blocks survive
		}
		plan, err := c.Plan(present, nil)
		if err != nil {
			t.Fatalf("Plan(%v): %v", present, err)
		}
		counts := plan.Counts()
		if counts.Mul != 0 || counts.MulAdd != 0 || counts.Clear != 0 {
			t.Fatalf("RS(%d,%d) full-data decode plan has GF work: %+v", p.n, p.k, counts)
		}
		if counts.Copy != p.k {
			t.Fatalf("RS(%d,%d) full-data decode plan has %d copies, want %d", p.n, p.k, counts.Copy, p.k)
		}
	}
}

// TestDecodePlanSurvivingDataBlocksAreCopies checks the mixed survivor set:
// with one data block lost and a parity block standing in, every surviving
// data block is still produced by a single COPY.
func TestDecodePlanSurvivingDataBlocksAreCopies(t *testing.T) {
	c, err := New(12, 6)
	if err != nil {
		t.Fatal(err)
	}
	present := []int{1, 2, 3, 4, 5, 6} // data block 0 lost, parity 6 in
	plan, err := c.Plan(present, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := plan.Counts()
	if counts.Copy != 5 {
		t.Fatalf("decode plan has %d copies, want 5: %+v", counts.Copy, counts)
	}
	if counts.Mul+counts.MulAdd == 0 {
		t.Fatalf("decode plan has no GF ops for the lost block: %+v", counts)
	}
}
