// Package lrc implements Azure-style Locally Repairable Codes, the other
// repair-oriented erasure-code family the paper's related-work section
// contrasts Carousel codes with (Huang et al., "Erasure Coding in Windows
// Azure Storage").
//
// An LRC(k, l, g) code stores k data blocks in l local groups (l must
// divide k), adds one local parity per group and g global parities:
// n = k + l + g blocks in total. A single lost data block is repaired from
// the k/l surviving blocks of its group — cheap, local repair — at the
// price of giving up the MDS property: unlike an (n, k) MDS code, not
// every n-k-block loss is decodable. Decode gathers all surviving
// equations and solves; IsDecodable reports whether a failure pattern is
// recoverable.
//
// The package exists as a baseline: the benchmarks contrast its repair
// locality and failure coverage against RS, MSR, and Carousel codes of the
// same storage overhead.
package lrc

import (
	"errors"
	"fmt"

	"carousel/internal/gf256"
	"carousel/internal/lincode"
	"carousel/internal/matrix"
)

// Argument errors. All but ErrUndecodable are the engine's, shared with
// every other codec.
var (
	// ErrUndecodable is returned when the surviving blocks cannot
	// reconstruct the requested data. An (n, k) MDS code has no such
	// error: this is what LRC gives up for local repair.
	ErrUndecodable = errors.New("lrc: failure pattern is not decodable")

	// ErrBlockCount is returned when the number of provided blocks does
	// not match the code parameters.
	ErrBlockCount = lincode.ErrBlockCount

	// ErrBlockSizeMismatch is returned when blocks are empty or have
	// different sizes.
	ErrBlockSizeMismatch = lincode.ErrBlockSizeMismatch

	// ErrBadHelpers is returned when a repair names a failed block that is
	// not a block of the code.
	ErrBadHelpers = lincode.ErrBadHelpers
)

// Code is an LRC(k, l, g) code. Block layout: indices [0, k) are data
// blocks (group j holds indices [j*k/l, (j+1)*k/l)), [k, k+l) are the
// local parities (one per group), and [k+l, k+l+g) are the global
// parities.
//
// It is the linear-code engine over that generator, one unit per block,
// run serially: Encode is the engine's. Because not every k blocks are
// independent, Decode and Repair pick the source rows here and hand them
// to the engine's DecodeFrom / SolveInto.
type Code struct {
	*lincode.Code

	k, l, g   int
	groupSize int
	gen       *matrix.Matrix // (k+l+g) x k
}

// New constructs an LRC(k, l, g) code. l must divide k; g >= 1.
func New(k, l, g int) (*Code, error) {
	if k <= 0 || l <= 0 || g <= 0 {
		return nil, fmt.Errorf("lrc: parameters must be positive, got k=%d l=%d g=%d", k, l, g)
	}
	if k%l != 0 {
		return nil, fmt.Errorf("lrc: l=%d must divide k=%d", l, k)
	}
	if k+l+g > 256 {
		return nil, fmt.Errorf("lrc: n=%d exceeds GF(256) capacity", k+l+g)
	}
	c := &Code{k: k, l: l, g: g, groupSize: k / l}
	n := k + l + g
	gen := matrix.New(n, k)
	for i := 0; i < k; i++ {
		gen.Set(i, i, 1)
	}
	// Local parities: XOR of the group's data blocks. XOR keeps group
	// repair at its cheapest while the global Cauchy rows provide the
	// cross-group diversity.
	for j := 0; j < l; j++ {
		row := gen.Row(k + j)
		for m := 0; m < c.groupSize; m++ {
			row[j*c.groupSize+m] = 1
		}
	}
	// Global parities: Cauchy rows 1/(x_i + y_c) with x and y disjoint.
	for i := 0; i < g; i++ {
		row := gen.Row(k + l + i)
		for col := 0; col < k; col++ {
			row[col] = gf256.Inv(byte(i) ^ byte(g+col))
		}
	}
	c.gen = gen
	c.Code = lincode.New(n, k, 1, gen, nil)
	return c, nil
}

// L returns the number of local groups.
func (c *Code) L() int { return c.l }

// G returns the number of global parities.
func (c *Code) G() int { return c.g }

// GroupSize returns the number of data blocks per local group.
func (c *Code) GroupSize() int { return c.groupSize }

// Group returns the local group of a data or local-parity block, or -1 for
// global parities.
func (c *Code) Group(idx int) int {
	switch {
	case idx < 0 || idx >= c.N():
		return -1
	case idx < c.k:
		return idx / c.groupSize
	case idx < c.k+c.l:
		return idx - c.k
	default:
		return -1
	}
}

// StorageOverhead returns n/k.
func (c *Code) StorageOverhead() float64 { return float64(c.N()) / float64(c.k) }

// IsDecodable reports whether the original data is recoverable from the
// given availability pattern (length n).
func (c *Code) IsDecodable(available []bool) bool {
	if len(available) != c.N() {
		return false
	}
	_, err := c.independentRows(available)
	return err == nil
}

// Decode recovers the k data blocks from the available blocks (nil entries
// mark unavailable ones). It returns ErrUndecodable when the pattern is
// unrecoverable.
func (c *Code) Decode(blocks [][]byte) ([][]byte, error) {
	if len(blocks) != c.N() {
		return nil, fmt.Errorf("%w: got %d blocks, want %d", ErrBlockCount, len(blocks), c.N())
	}
	rows, err := c.independentRows(availability(blocks))
	if err != nil {
		return nil, err
	}
	return c.DecodeFrom(blocks, rows)
}

// availability marks which entries of blocks are present.
func availability(blocks [][]byte) []bool {
	available := make([]bool, len(blocks))
	for i, b := range blocks {
		available[i] = b != nil
	}
	return available
}

// independentRows selects k available block indices whose generator rows
// are independent.
func (c *Code) independentRows(available []bool) ([]int, error) {
	tracker := matrix.NewRankTracker(c.k)
	rows := make([]int, 0, c.k)
	for i, ok := range available {
		if !ok {
			continue
		}
		if tracker.Add(c.gen.Row(i)) {
			rows = append(rows, i)
			if len(rows) == c.k {
				return rows, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: surviving rank %d of %d", ErrUndecodable, len(rows), c.k)
}

// RepairPlan describes how a single lost block is regenerated.
type RepairPlan struct {
	// Sources lists the blocks read.
	Sources []int
	// Local reports whether the repair stayed within one group.
	Local bool
}

// PlanRepair returns the cheapest repair for a single lost block given the
// availability of the others: a group-local XOR when the group is intact,
// a global decode otherwise.
func (c *Code) PlanRepair(failed int, available []bool) (*RepairPlan, error) {
	if failed < 0 || failed >= c.N() {
		return nil, fmt.Errorf("%w: failed block %d out of range [0,%d)", ErrBadHelpers, failed, c.N())
	}
	if len(available) != c.N() {
		return nil, fmt.Errorf("%w: availability vector has %d entries, want %d", ErrBlockCount, len(available), c.N())
	}
	if grp := c.Group(failed); grp >= 0 {
		sources := make([]int, 0, c.groupSize)
		ok := true
		for m := 0; m < c.groupSize; m++ {
			idx := grp*c.groupSize + m
			if idx == failed {
				continue
			}
			if !available[idx] {
				ok = false
				break
			}
			sources = append(sources, idx)
		}
		lp := c.k + grp
		if failed != lp {
			if available[lp] {
				sources = append(sources, lp)
			} else {
				ok = false
			}
		}
		if ok {
			return &RepairPlan{Sources: sources, Local: true}, nil
		}
	}
	// Global repair: any k independent survivors.
	surv := make([]bool, c.N())
	copy(surv, available)
	surv[failed] = false
	rows, err := c.independentRows(surv)
	if err != nil {
		return nil, err
	}
	return &RepairPlan{Sources: rows, Local: false}, nil
}

// Repair regenerates the failed block from the available blocks using the
// cheapest plan.
func (c *Code) Repair(failed int, blocks [][]byte) ([]byte, error) {
	plan, err := c.PlanRepair(failed, availability(blocks))
	if err != nil {
		return nil, err
	}
	_, size, err := lincode.Survey(blocks, c.N(), 1, true)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	if plan.Local {
		// Group members and local parity XOR to zero, so the failed block
		// is the XOR of the sources.
		for _, s := range plan.Sources {
			gf256.AddSlice(blocks[s], out)
		}
		return out, nil
	}
	in := make([][]byte, len(plan.Sources))
	for i, s := range plan.Sources {
		in[i] = blocks[s]
	}
	if err := c.SolveInto(plan.Sources, in, []int{failed}, [][]byte{out}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReconstructionTraffic returns the bytes read to repair the given block
// with all other blocks available: group locality for data and local
// parities, k blocks for a global parity.
func (c *Code) ReconstructionTraffic(failed, blockSize int) int {
	if c.Group(failed) >= 0 {
		return c.groupSize * blockSize
	}
	return c.k * blockSize
}
