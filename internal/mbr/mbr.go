// Package mbr implements minimum-bandwidth regenerating (MBR) codes using
// the product-matrix construction of Rashmi, Shah, and Kumar — the other
// extreme of the storage/repair-bandwidth trade-off the paper's related
// work situates Carousel codes in. Where MSR codes store the MDS minimum
// (1/k of the data per block) and repair with d/(d-k+1) blocks of traffic,
// MBR codes store more per block but repair a lost block by moving
// exactly one block's worth of bytes — the information-theoretic minimum
// repair bandwidth.
//
// Construction (d >= k): each block holds alpha = d units; the message
// fills a symmetric d x d matrix M = [[S, T], [T^T, 0]] with S symmetric
// k x k and T arbitrary k x (d-k), for B = k*d - k*(k-1)/2 message units
// per stripe. Block i is psi_i * M with Vandermonde psi. Because M is
// symmetric, a helper j repairs block f by sending the single unit
// psi_j M psi_f^T, and the newcomer inverts Psi_D to obtain
// M psi_f^T = block f.
package mbr

import (
	"fmt"

	"carousel/internal/lincode"
	"carousel/internal/matrix"
)

// Argument errors: the engine's, shared with every other codec.
var (
	// ErrTooFewBlocks is returned when fewer than k blocks are available.
	ErrTooFewBlocks = lincode.ErrTooFewBlocks

	// ErrBlockSizeMismatch is returned for inconsistent or misaligned
	// block or message sizes.
	ErrBlockSizeMismatch = lincode.ErrBlockSizeMismatch

	// ErrBlockCount is returned when counts do not match the parameters.
	ErrBlockCount = lincode.ErrBlockCount

	// ErrBadHelpers is returned for invalid repair helper sets.
	ErrBadHelpers = lincode.ErrBadHelpers
)

// Code is an (n, k, d) product-matrix MBR code. Construct with New; safe
// for concurrent use. Its message is not k block-sized shards (a block
// holds more than 1/k of it), so it keeps its own message-shaped Encode and
// Decode over the reference matrix.ApplyToUnits and borrows only the
// engine's surveys, memo and helper validation.
type Code struct {
	n, k, d int
	msgLen  int // B = k*d - k*(k-1)/2 message units per stripe

	psi *matrix.Matrix // n x d Vandermonde encoding matrix
	gen *matrix.Matrix // (n*d) x B generator over message units

	solvers lincode.Memo[*decSolver] // k present blocks -> row choice + inverse
}

type decSolver struct {
	rows []int // selected generator rows
	inv  *matrix.Matrix
}

// New constructs an (n, k, d) MBR code with k <= d < n and 2 <= k.
func New(n, k, d int) (*Code, error) {
	if k < 2 {
		return nil, fmt.Errorf("mbr: k must be at least 2, got %d", k)
	}
	if d < k || d >= n {
		return nil, fmt.Errorf("mbr: need k <= d < n, got k=%d d=%d n=%d", k, d, n)
	}
	if n > 255 {
		return nil, fmt.Errorf("mbr: n=%d exceeds GF(256) capacity", n)
	}
	c := &Code{n: n, k: k, d: d, msgLen: k*d - k*(k-1)/2}
	xs := make([]byte, n)
	for i := range xs {
		xs[i] = byte(i + 1)
	}
	c.psi = matrix.Vandermonde(xs, d)
	// Generator: unit (i, s) = sum_r psi_i[r] * M[r][s], with M symmetric
	// and its lower-right (d-k) x (d-k) corner zero.
	gen := matrix.New(n*d, c.msgLen)
	for i := 0; i < n; i++ {
		psiRow := c.psi.Row(i)
		for s := 0; s < d; s++ {
			row := gen.Row(i*d + s)
			for r := 0; r < d; r++ {
				coef := psiRow[r]
				if coef == 0 {
					continue
				}
				p, ok := c.param(r, s)
				if !ok {
					continue // structural zero
				}
				row[p] ^= coef
			}
		}
	}
	c.gen = gen
	return c, nil
}

// param maps M[r][s] to its message-unit index, honoring symmetry and the
// zero corner. Layout: the upper triangle of S row-major (k*(k+1)/2
// units), then T row-major (k*(d-k) units).
func (c *Code) param(r, s int) (int, bool) {
	if r > s {
		r, s = s, r
	}
	switch {
	case s < c.k:
		// Inside S.
		return r*c.k - r*(r-1)/2 + (s - r), true
	case r < c.k:
		// Inside T.
		return c.k*(c.k+1)/2 + r*(c.d-c.k) + (s - c.k), true
	default:
		return 0, false // zero corner
	}
}

// N returns the total number of blocks per stripe.
func (c *Code) N() int { return c.n }

// K returns the number of blocks needed to decode.
func (c *Code) K() int { return c.k }

// D returns the number of repair helpers.
func (c *Code) D() int { return c.d }

// Alpha returns the units per block (d).
func (c *Code) Alpha() int { return c.d }

// MessageUnits returns B, the message units per stripe.
func (c *Code) MessageUnits() int { return c.msgLen }

// StorageOverhead returns the total stored bytes per message byte:
// n*d / B, strictly above the MDS n/k.
func (c *Code) StorageOverhead() float64 {
	return float64(c.n*c.d) / float64(c.msgLen)
}

// Encode encodes a message whose length is a multiple of MessageUnits()
// into n blocks of Alpha() units each (len(message)/B bytes per unit).
func (c *Code) Encode(message []byte) ([][]byte, error) {
	if err := lincode.CheckSize(len(message), c.msgLen); err != nil {
		return nil, err
	}
	usize := len(message) / c.msgLen
	blocks := make([][]byte, c.n)
	out := make([][]byte, 0, c.n*c.d)
	for i := range blocks {
		blocks[i] = make([]byte, c.d*usize)
		out = append(out, split(blocks[i], c.d)...)
	}
	c.gen.ApplyToUnits(split(message, c.msgLen), out)
	return blocks, nil
}

// split cuts buf into count equal views.
func split(buf []byte, count int) [][]byte {
	usize := len(buf) / count
	out := make([][]byte, count)
	for i := range out {
		out[i] = buf[i*usize : (i+1)*usize]
	}
	return out
}

// Decode recovers the message from any k available blocks (nil entries
// mark missing blocks).
func (c *Code) Decode(blocks [][]byte) ([]byte, error) {
	present, size, err := lincode.Survey(blocks, c.n, c.d, true)
	if err != nil {
		return nil, err
	}
	if len(present) < c.k {
		return nil, fmt.Errorf("%w: %d present, need %d", ErrTooFewBlocks, len(present), c.k)
	}
	solver, err := c.solver(present[:c.k])
	if err != nil {
		return nil, err
	}
	usize := size / c.d
	in := make([][]byte, len(solver.rows))
	for x, row := range solver.rows {
		b := row / c.d
		s := row % c.d
		in[x] = blocks[b][s*usize : (s+1)*usize]
	}
	message := make([]byte, c.msgLen*usize)
	solver.inv.ApplyToUnits(in, split(message, c.msgLen))
	return message, nil
}

// solver picks B independent unit rows among the k present blocks and
// memoizes them with the inverse.
func (c *Code) solver(present []int) (*decSolver, error) {
	var buf [32]byte
	return c.solvers.Get(lincode.AppendIndices(buf[:0], present), func() (*decSolver, error) {
		tracker := matrix.NewRankTracker(c.msgLen)
		rows := make([]int, 0, c.msgLen)
		for _, b := range present {
			for s := 0; s < c.d; s++ {
				row := b*c.d + s
				if tracker.Add(c.gen.Row(row)) {
					rows = append(rows, row)
				}
			}
		}
		if len(rows) < c.msgLen {
			return nil, fmt.Errorf("mbr: blocks %v yield rank %d of %d (construction bug)", present, len(rows), c.msgLen)
		}
		inv, err := c.gen.SelectRows(rows).Inverse()
		if err != nil {
			return nil, fmt.Errorf("mbr: decode matrix: %w", err)
		}
		return &decSolver{rows: rows, inv: inv}, nil
	})
}

// HelperChunk computes one helper's repair contribution: the single unit
// psi_helper * M * psi_failed^T = block_helper . psi_failed (an inner
// product of the helper's d units with the failed block's psi row).
func (c *Code) HelperChunk(helper, failed int, block []byte) ([]byte, error) {
	if err := lincode.ValidateHelpers(c.n, 1, failed, []int{helper}); err != nil {
		return nil, err
	}
	if err := lincode.CheckSize(len(block), c.d); err != nil {
		return nil, err
	}
	out := make([]byte, len(block)/c.d)
	matrix.ApplyRowToUnits(c.psi.Row(failed), split(block, c.d), out)
	return out, nil
}

// RepairBlock regenerates the failed block from d helper chunks (given in
// helper order): stack the chunks as Psi_D * (M psi_f^T), invert Psi_D,
// and the result M psi_f^T is the failed block by symmetry of M. Total
// traffic: d units = exactly one block.
func (c *Code) RepairBlock(failed int, helpers []int, chunks [][]byte) ([]byte, error) {
	if err := lincode.ValidateHelpers(c.n, c.d, failed, helpers); err != nil {
		return nil, err
	}
	_, usize, err := lincode.Survey(chunks, c.d, 1, false)
	if err != nil {
		return nil, err
	}
	inv, err := c.psi.SelectRows(helpers).Inverse()
	if err != nil {
		return nil, fmt.Errorf("mbr: helper matrix: %w", err)
	}
	block := make([]byte, c.d*usize)
	inv.ApplyToUnits(chunks, split(block, c.d))
	return block, nil
}

// Repair runs both repair sides given the full block slice.
func (c *Code) Repair(failed int, helpers []int, blocks [][]byte) ([]byte, error) {
	if err := lincode.ValidateHelpers(c.n, c.d, failed, helpers); err != nil {
		return nil, err
	}
	if len(blocks) != c.n {
		return nil, fmt.Errorf("%w: got %d blocks, want %d", ErrBlockCount, len(blocks), c.n)
	}
	chunks := make([][]byte, len(helpers))
	for i, h := range helpers {
		if blocks[h] == nil {
			return nil, fmt.Errorf("%w: helper %d has no block", ErrBadHelpers, h)
		}
		ch, err := c.HelperChunk(h, failed, blocks[h])
		if err != nil {
			return nil, err
		}
		chunks[i] = ch
	}
	return c.RepairBlock(failed, helpers, chunks)
}

// ReconstructionTraffic returns the repair download for one block of the
// given size: d chunks of blockSize/d bytes — exactly one block, the MBR
// optimum.
func (c *Code) ReconstructionTraffic(blockSize int) int {
	return c.d * (blockSize / c.d)
}
