// Package carousel implements Carousel codes, the primary contribution of
// "On Data Parallelism of Erasure Coding in Distributed Storage Systems"
// (Jun Li and Baochun Li, ICDCS 2017).
//
// An (n, k, d, p) Carousel code encodes k blocks of data into n blocks such
// that:
//
//   - any k blocks decode the original data (the MDS property, same optimal
//     storage overhead as a Reed-Solomon code);
//   - the original data is embedded verbatim, sequentially, into the first
//     p blocks (k <= p <= n), so up to p readers or map tasks can consume
//     original data in parallel without any decoding — versus k for a
//     systematic code;
//   - one lost block is regenerated from d helpers with the
//     minimum-storage-regenerating optimum of d/(d-k+1) blocks of network
//     traffic (d > k uses a product-matrix MSR base; d == k degenerates to
//     a Reed-Solomon base with k-block repair).
//
// Construction (Sections V-VII of the paper): the base code's generator is
// expanded by a Kronecker identity factor so each block consists of U
// units; a balanced selection of K units per data-bearing block is chosen
// round-robin (unitplan.go); symbol remapping by the inverse of the
// selected rows turns exactly those units into original data; finally the
// units of each block are reordered so data units form a contiguous prefix.
//
// Blocks are laid out as [K data units | U-K parity units] for the first p
// blocks and as U parity units for the rest. Block i < p carries the file
// byte range [i*K, (i+1)*K) * UnitSize contiguously at its front — the
// property MapReduce splits rely on.
package carousel

import (
	"fmt"

	"carousel/internal/lincode"
	"carousel/internal/matrix"
	"carousel/internal/msr"
)

// Argument errors: the engine's, shared with every other codec.
var (
	// ErrTooFewBlocks is returned when fewer than k blocks are available.
	ErrTooFewBlocks = lincode.ErrTooFewBlocks

	// ErrBlockSizeMismatch is returned for inconsistent or misaligned
	// block sizes.
	ErrBlockSizeMismatch = lincode.ErrBlockSizeMismatch

	// ErrBlockCount is returned when the number of blocks does not match
	// the code parameters.
	ErrBlockCount = lincode.ErrBlockCount

	// ErrBadHelpers is returned for invalid repair helper sets.
	ErrBadHelpers = lincode.ErrBadHelpers
)

// Code is an (n, k, d, p) Carousel code. Construct with New; a Code is safe
// for concurrent use.
//
// It is the linear-code engine over the remapped generator with U units
// per block and the stored-order permutation toStored, so Encode,
// EncodeInto, Decode and Verify are the engine's: shard and block sizes
// must be multiples of UnitsPerBlock(); conceptually the original data is
// the concatenation of the k shards, and block i < p stores the byte range
// DataRange(i) of it verbatim at its front. What this package adds is what
// is Carousel's own: the construction, the p-source parallel read and its
// degraded solver, and repair at the base code's traffic.
type Code struct {
	*lincode.Code

	n, k, d, p int
	alpha      int // segments per block in the base code, d-k+1
	expand     int // P: units per base symbol
	kUnits     int // K: data units per data-bearing block
	units      int // U = alpha*expand: units per block

	// gen is the remapped canonical generator: (n*U) x (k*U). Row (i, u)
	// gives the coefficients of canonical unit u of block i over the k*U
	// original data units. For i < p and u in chosen[i], the row is a unit
	// vector: that unit stores original data verbatim.
	gen *matrix.Matrix

	// chosen[i] lists the canonical units of block i < p that carry data,
	// in data order: chosen[i][j] holds global data unit i*K + j.
	chosen [][]int

	// toCanon[i][pos] is the canonical unit stored at position pos of
	// block i (data prefix first, then parity in canonical order);
	// toStored[i][u] is its inverse.
	toCanon  [][]int
	toStored [][]int

	structured bool // whether the paper's structured selection was used

	base *msr.Code // repair machinery for d > k; nil when d == k

	// readPlans: availability + block size -> read plan, with its solver.
	readPlans lincode.Memo[*ReadPlan]
}

// New constructs an (n, k, d, p) Carousel code.
//
// Requirements: 1 <= k < n; k <= p <= n; and either d == k (Reed-Solomon
// base) or 2 <= k <= d < n with d >= 2k-2 (product-matrix MSR base).
func New(n, k, d, p int) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("carousel: k must be positive, got %d", k)
	}
	if n <= k {
		return nil, fmt.Errorf("carousel: n must exceed k, got n=%d k=%d", n, k)
	}
	if p < k || p > n {
		return nil, fmt.Errorf("carousel: p must satisfy k <= p <= n, got p=%d", p)
	}
	if d < k || d >= n {
		return nil, fmt.Errorf("carousel: d must satisfy k <= d < n, got d=%d", d)
	}
	c := &Code{n: n, k: k, d: d, p: p}
	var baseGen *matrix.Matrix
	if d == k {
		c.alpha = 1
		g, err := matrix.SystematicCauchy(n, k)
		if err != nil {
			return nil, fmt.Errorf("carousel: base RS code: %w", err)
		}
		baseGen = g
	} else {
		base, err := msr.New(n, k, d)
		if err != nil {
			return nil, fmt.Errorf("carousel: base MSR code: %w", err)
		}
		c.base = base
		c.alpha = base.Alpha()
		baseGen = base.EffectiveGenerator()
	}

	c.kUnits, c.expand, c.units = unitParams(k, c.alpha, p)
	expanded := baseGen.ExpandIdentity(c.expand)
	var err error
	if c.chosen, c.structured, err = chooseUnits(expanded, n, k, c.alpha, p); err != nil {
		return nil, err
	}

	g0 := expanded.SelectRows(selectionRows(c.chosen, c.units))
	g0inv, err := g0.Inverse()
	if err != nil {
		return nil, fmt.Errorf("carousel: symbol remapping (plan verified invertible, so this is a bug): %w", err)
	}
	c.gen = expanded.Mul(g0inv)

	c.buildPermutations()
	if err := c.checkSystematicRows(); err != nil {
		return nil, err
	}
	c.Code = lincode.New(n, k, c.units, c.gen, c.toStored)
	return c, nil
}

// buildPermutations computes the stored-position <-> canonical-unit maps:
// data units first (in data order), then the remaining units in canonical
// order (the paper's Step 4 reordering).
func (c *Code) buildPermutations() {
	c.toCanon = make([][]int, c.n)
	c.toStored = make([][]int, c.n)
	for i := 0; i < c.n; i++ {
		order := make([]int, 0, c.units)
		isData := make([]bool, c.units)
		if i < c.p {
			for _, u := range c.chosen[i] {
				order = append(order, u)
				isData[u] = true
			}
		}
		for u := 0; u < c.units; u++ {
			if !isData[u] {
				order = append(order, u)
			}
		}
		inv := make([]int, c.units)
		for pos, u := range order {
			inv[u] = pos
		}
		c.toCanon[i] = order
		c.toStored[i] = inv
	}
}

// checkSystematicRows verifies the remapping: the row of data unit j of
// block i must be the unit vector for global data unit i*K + j.
func (c *Code) checkSystematicRows() error {
	for i := 0; i < c.p; i++ {
		for j, u := range c.chosen[i] {
			col, ok := c.gen.UnitColumn(i*c.units + u)
			if !ok || col != i*c.kUnits+j {
				return fmt.Errorf("carousel: remapped row (%d,%d) is not data unit %d (construction bug)",
					i, u, i*c.kUnits+j)
			}
		}
	}
	return nil
}

// D returns the number of helpers used to repair one block.
func (c *Code) D() int { return c.d }

// P returns the data parallelism: the number of blocks carrying original
// data.
func (c *Code) P() int { return c.p }

// Alpha returns the number of segments per block in the base code.
func (c *Code) Alpha() int { return c.alpha }

// UnitsPerBlock returns U, the number of units each block is divided into.
// Block sizes must be multiples of this value.
func (c *Code) UnitsPerBlock() int { return c.units }

// DataUnitsPerBlock returns K, the number of data units each of the first p
// blocks carries.
func (c *Code) DataUnitsPerBlock() int { return c.kUnits }

// BlockAlign returns the alignment every block size must satisfy (U).
func (c *Code) BlockAlign() int { return c.units }

// Structured reports whether the paper's structured round-robin selection
// produced this code's unit plan (as opposed to the greedy fallback).
func (c *Code) Structured() bool { return c.structured }

// DataBytesPerBlock returns how many bytes of original data the front of
// block i carries, for the given block size.
func (c *Code) DataBytesPerBlock(i, blockSize int) int {
	if i < 0 || i >= c.n || i >= c.p {
		return 0
	}
	return c.kUnits * (blockSize / c.units)
}

// DataRange returns the half-open byte range [lo, hi) of the original data
// (of k*blockSize bytes total) that block i stores at its front. Blocks
// i >= p store no data.
func (c *Code) DataRange(i, blockSize int) (lo, hi int) {
	if i < 0 || i >= c.p {
		return 0, 0
	}
	per := c.kUnits * (blockSize / c.units)
	return i * per, (i + 1) * per
}
