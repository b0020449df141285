package carousel

import (
	"errors"
	"fmt"
	"slices"

	"carousel/internal/matrix"
)

// Unit selection: which units of each block carry original data.
//
// Given the expanded generator Ĝ of a base code (every block split into U
// units), the construction must choose exactly K units from each of the
// first p blocks such that the chosen rows of Ĝ form an invertible square
// matrix Ĝ₀. Symbol remapping by Ĝ₀⁻¹ then turns exactly those units into
// verbatim original data (Sections V-VII of the paper).
//
// The paper's structured round-robin rule is tried first and its
// invertibility verified explicitly; if the structured pattern is singular
// or undefined for a parameter combination, a deterministic
// quota-respecting greedy selection completes the plan.

// errNoPlan is returned when no balanced invertible selection could be
// found.
var errNoPlan = errors.New("carousel: no invertible balanced unit selection exists")

// unitParams computes the expansion parameters of an (n, k, d, p) Carousel
// code with base segment count alpha: the irreducible fraction K/P of
// k*alpha/p, and U = alpha*P.
func unitParams(k, alpha, p int) (kUnits, pFactor, uPerBlock int) {
	g := gcd(k*alpha, p)
	kUnits = k * alpha / g
	pFactor = p / g
	uPerBlock = alpha * pFactor
	return kUnits, pFactor, uPerBlock
}

// chooseUnits selects K data units in each of the first p blocks of the
// expanded generator gen, which must have n*U rows and k*U columns with
// U = alpha*P. chosen[i] lists block i's canonical unit indices that carry
// original data, in the paper's intra-block data order (Step 3 labeling:
// window-major, starting at the block's rotation offset). It first tries
// the paper's structured rotating rule (structured reports that it held)
// and falls back to a deterministic greedy completion, always verifying
// invertibility of the selected row set.
func chooseUnits(gen *matrix.Matrix, n, k, alpha, p int) (chosen [][]int, structured bool, err error) {
	if p < k || p > n {
		return nil, false, fmt.Errorf("carousel: unit selection: p must satisfy k <= p <= n, got k=%d p=%d n=%d", k, p, n)
	}
	kUnits, _, u := unitParams(k, alpha, p)
	if gen.Rows() != n*u || gen.Cols() != k*u {
		return nil, false, fmt.Errorf("carousel: unit selection: generator is %dx%d, want %dx%d", gen.Rows(), gen.Cols(), n*u, k*u)
	}
	if chosen := structuredPlan(k, p, kUnits, u); chosen != nil && planInvertible(gen, chosen, u) {
		return chosen, true, nil
	}
	chosen, err = greedyPlan(gen, p, kUnits, u)
	return chosen, false, err
}

// structuredPlan implements the paper's rule: partition each block's U
// units into windows of N0 consecutive units, where K0/N0 is the
// irreducible fraction of k/p, and in block i choose the K0 offsets
// (i, i+1, ..., i+K0-1) mod N0 within every window. The returned order is
// window-major with offsets scanned from the block's rotation start, which
// is the paper's Step 3 labeling order. Returns nil when the windows do not
// tile the block (N0 does not divide U).
func structuredPlan(k, p, kUnits, u int) [][]int {
	g := gcd(k, p)
	n0 := p / g
	k0 := k / g
	if n0 == 0 || u%n0 != 0 {
		return nil
	}
	windows := u / n0
	if windows*k0 != kUnits {
		return nil
	}
	chosen := make([][]int, p)
	for i := 0; i < p; i++ {
		units := make([]int, 0, kUnits)
		for w := 0; w < windows; w++ {
			for j := 0; j < k0; j++ {
				units = append(units, w*n0+(i+j)%n0)
			}
		}
		chosen[i] = units
	}
	return chosen
}

// greedyPlan builds a balanced selection by scanning candidate units in a
// rotating order and keeping those that increase the rank of the selected
// row set, respecting the per-block quota of K units.
func greedyPlan(gen *matrix.Matrix, p, kUnits, u int) ([][]int, error) {
	cols := gen.Cols()
	elim := matrix.NewRankTracker(cols)
	chosen := make([][]int, p)
	total := 0
	// Rotate through blocks, each round offering each block its next
	// diagonal candidate first; multiple passes allow later rows to fill
	// gaps left by dependent candidates.
	for pass := 0; pass < u && total < cols; pass++ {
		for i := 0; i < p && total < cols; i++ {
			if len(chosen[i]) >= kUnits {
				continue
			}
			for off := 0; off < u; off++ {
				unit := (i + pass + off) % u
				if slices.Contains(chosen[i], unit) {
					continue
				}
				if elim.Add(gen.Row(i*u + unit)) {
					chosen[i] = append(chosen[i], unit)
					total++
					break
				}
			}
		}
	}
	if total != cols {
		return nil, fmt.Errorf("%w: greedy selection reached rank %d of %d", errNoPlan, total, cols)
	}
	for i := range chosen {
		if len(chosen[i]) != kUnits {
			return nil, fmt.Errorf("%w: block %d holds %d units, want %d", errNoPlan, i, len(chosen[i]), kUnits)
		}
	}
	return chosen, nil
}

// planInvertible checks that the selected rows of gen form an invertible
// matrix.
func planInvertible(gen *matrix.Matrix, chosen [][]int, u int) bool {
	elim := matrix.NewRankTracker(gen.Cols())
	count := 0
	for i, units := range chosen {
		for _, unit := range units {
			if !elim.Add(gen.Row(i*u + unit)) {
				return false
			}
			count++
		}
	}
	return count == gen.Cols()
}

// selectionRows returns the global row indices of the chosen units in data
// order, for building Ĝ₀.
func selectionRows(chosen [][]int, u int) []int {
	var rows []int
	for i, units := range chosen {
		for _, unit := range units {
			rows = append(rows, i*u+unit)
		}
	}
	return rows
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
