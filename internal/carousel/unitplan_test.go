package carousel

import (
	"testing"

	"carousel/internal/matrix"
	"carousel/internal/msr"
)

func TestParams(t *testing.T) {
	tests := []struct {
		k, alpha, p         int
		wantK, wantP, wantU int
	}{
		{2, 1, 3, 2, 3, 3},   // (3,2) RS toy: K/P = 2/3
		{6, 5, 12, 5, 2, 10}, // (12,6,10,12)
		{6, 5, 10, 3, 1, 5},  // (12,6,10,10)
		{6, 5, 8, 15, 4, 20}, // (12,6,10,8)
		{6, 5, 6, 5, 1, 5},   // p = k: whole blocks
		{4, 1, 4, 1, 1, 1},   // k*alpha divisible by p
	}
	for _, tt := range tests {
		gotK, gotP, gotU := unitParams(tt.k, tt.alpha, tt.p)
		if gotK != tt.wantK || gotP != tt.wantP || gotU != tt.wantU {
			t.Errorf("unitParams(%d,%d,%d) = (%d,%d,%d), want (%d,%d,%d)",
				tt.k, tt.alpha, tt.p, gotK, gotP, gotU, tt.wantK, tt.wantP, tt.wantU)
		}
	}
}

func rsExpanded(t *testing.T, n, k, p int) *matrix.Matrix {
	t.Helper()
	g, err := matrix.SystematicCauchy(n, k)
	if err != nil {
		t.Fatal(err)
	}
	_, pf, _ := unitParams(k, 1, p)
	return g.ExpandIdentity(pf)
}

func TestChooseStructuredRSBase(t *testing.T) {
	for _, tt := range []struct{ n, k, p int }{
		{3, 2, 3}, {4, 2, 4}, {6, 3, 6}, {12, 6, 12}, {5, 3, 4}, {9, 6, 8},
	} {
		gen := rsExpanded(t, tt.n, tt.k, tt.p)
		chosen, structured, err := chooseUnits(gen, tt.n, tt.k, 1, tt.p)
		if err != nil {
			t.Fatalf("(%d,%d,p=%d): %v", tt.n, tt.k, tt.p, err)
		}
		if !structured {
			t.Errorf("(%d,%d,p=%d): expected the structured rule to hold", tt.n, tt.k, tt.p)
		}
		checkPlan(t, chosen, gen, tt.k, 1, tt.p)
	}
}

func TestChooseStructuredMSRBase(t *testing.T) {
	for _, tt := range []struct{ n, k, d, p int }{
		{12, 6, 10, 12}, {12, 6, 10, 10}, {12, 6, 10, 8}, {12, 6, 10, 6},
		{6, 3, 5, 6}, {8, 4, 7, 8},
	} {
		code, err := msr.New(tt.n, tt.k, tt.d)
		if err != nil {
			t.Fatal(err)
		}
		_, pf, _ := unitParams(tt.k, code.Alpha(), tt.p)
		gen := code.EffectiveGenerator().ExpandIdentity(pf)
		chosen, structured, err := chooseUnits(gen, tt.n, tt.k, code.Alpha(), tt.p)
		if err != nil {
			t.Fatalf("(%d,%d,%d,p=%d): %v", tt.n, tt.k, tt.d, tt.p, err)
		}
		checkPlan(t, chosen, gen, tt.k, code.Alpha(), tt.p)
		t.Logf("(%d,%d,%d,p=%d): structured=%v", tt.n, tt.k, tt.d, tt.p, structured)
	}
}

// checkPlan verifies balance, dedup, and invertibility of a selection.
func checkPlan(t *testing.T, chosen [][]int, gen *matrix.Matrix, k, alpha, p int) {
	t.Helper()
	kUnits, _, u := unitParams(k, alpha, p)
	if len(chosen) != p {
		t.Fatalf("plan covers %d blocks, want %d", len(chosen), p)
	}
	total := 0
	for i, units := range chosen {
		if len(units) != kUnits {
			t.Fatalf("block %d holds %d units, want %d", i, len(units), kUnits)
		}
		seen := make(map[int]bool)
		for _, unit := range units {
			if unit < 0 || unit >= u {
				t.Fatalf("block %d unit %d out of range [0,%d)", i, unit, u)
			}
			if seen[unit] {
				t.Fatalf("block %d repeats unit %d", i, unit)
			}
			seen[unit] = true
		}
		total += len(units)
	}
	if total != gen.Cols() {
		t.Fatalf("plan selects %d rows, want %d", total, gen.Cols())
	}
	g0 := gen.SelectRows(selectionRows(chosen, u))
	if _, err := g0.Inverse(); err != nil {
		t.Fatalf("selected rows are singular: %v", err)
	}
}

func TestChooseValidation(t *testing.T) {
	gen := rsExpanded(t, 4, 2, 4)
	if _, _, err := chooseUnits(gen, 4, 2, 1, 1); err == nil {
		t.Error("p < k did not error")
	}
	if _, _, err := chooseUnits(gen, 4, 2, 1, 5); err == nil {
		t.Error("p > n did not error")
	}
	if _, _, err := chooseUnits(matrix.New(3, 3), 4, 2, 1, 4); err == nil {
		t.Error("wrong generator shape did not error")
	}
}

func TestGreedyFallbackOnShuffledGenerator(t *testing.T) {
	// Zero the row the structured rule would pick for block 0 (unit 0) of
	// a valid expanded generator, so the structured pattern is singular,
	// and check the greedy fallback still finds a balanced invertible plan.
	gen := rsExpanded(t, 6, 3, 6) // U = 2, K = 1
	_, pf, u := unitParams(3, 1, 6)
	if pf != u {
		t.Fatalf("unexpected params pf=%d u=%d", pf, u)
	}
	bad := gen.Clone()
	row := bad.Row(0 * u) // block 0, unit 0
	for c := range row {
		row[c] = 0
	}
	chosen, structured, err := chooseUnits(bad, 6, 3, 1, 6)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if structured {
		t.Fatal("structured plan should have been rejected (zero row selected)")
	}
	// The zero row must not be part of the plan.
	for _, unit := range chosen[0] {
		if unit == 0 {
			t.Fatal("plan selected the zeroed row")
		}
	}
	checkPlan(t, chosen, bad, 3, 1, 6)
}
