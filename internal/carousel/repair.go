package carousel

import (
	"fmt"

	"carousel/internal/lincode"
	"carousel/internal/matrix"
)

// HelperChunkSize returns the number of bytes one helper uploads to repair
// a block of the given size: blockSize/alpha with an MSR base (d > k), the
// full block with a Reed-Solomon base (d == k).
func (c *Code) HelperChunkSize(blockSize int) int {
	return blockSize / c.alpha
}

// ReconstructionTraffic returns the total bytes downloaded by the newcomer
// to repair one block: d chunks, i.e. the MSR optimum d/(d-k+1) blocks when
// d > k and k blocks when d == k.
func (c *Code) ReconstructionTraffic(blockSize int) int {
	return c.d * c.HelperChunkSize(blockSize)
}

// HelperChunk computes the repair contribution of one helper for the failed
// block into a freshly allocated chunk. With an MSR base the helper
// combines its segments per sub-unit using phi_failed — after undoing the
// block's reordering, exactly the coefficient permutation of Fig. 4 — and
// uploads blockSize/alpha bytes. With a Reed-Solomon base (d == k) the
// chunk is the entire block.
func (c *Code) HelperChunk(helper, failed int, block []byte) ([]byte, error) {
	chunk := make([]byte, c.HelperChunkSize(len(block)))
	if err := c.HelperChunkInto(helper, failed, block, chunk); err != nil {
		return nil, err
	}
	return chunk, nil
}

// HelperChunkInto is HelperChunk into caller-owned memory: dst must hold
// HelperChunkSize(len(block)) bytes, must not overlap block, and may be
// dirty — every byte is overwritten. A malformed destination is reported
// before anything is written.
func (c *Code) HelperChunkInto(helper, failed int, block, dst []byte) error {
	if err := lincode.ValidateHelpers(c.n, 1, failed, []int{helper}); err != nil {
		return err
	}
	if err := lincode.CheckSize(len(block), c.units); err != nil {
		return err
	}
	if want := c.HelperChunkSize(len(block)); len(dst) != want {
		return fmt.Errorf("%w: chunk destination has %d bytes, want %d", ErrBlockSizeMismatch, len(dst), want)
	}
	if c.base == nil {
		copy(dst, block)
		return nil
	}
	phi, err := c.base.RepairHelperVector(failed)
	if err != nil {
		return err
	}
	usize := len(block) / c.units
	canon := c.Units(make([][]byte, 0, c.units), helper, block)
	// Sub-index t of the expansion is an independent copy of the base MSR
	// code; combine the alpha segments at each t with phi.
	segs := make([][]byte, c.alpha)
	for t := 0; t < c.expand; t++ {
		for s := 0; s < c.alpha; s++ {
			segs[s] = canon[s*c.expand+t]
		}
		matrix.ApplyRowToUnits(phi, segs, dst[t*usize:(t+1)*usize])
	}
	return nil
}

// RepairBlock regenerates the failed block, freshly allocated, from the d
// helper chunks, given in the same order as helpers.
func (c *Code) RepairBlock(failed int, helpers []int, chunks [][]byte) ([]byte, error) {
	size := 0
	if len(chunks) > 0 {
		size = len(chunks[0]) * c.alpha
	}
	block := make([]byte, size)
	if err := c.RepairBlockInto(failed, helpers, chunks, block); err != nil {
		return nil, err
	}
	return block, nil
}

// RepairBlockInto is RepairBlock into caller-owned memory: dst must hold
// one block (alpha chunks' worth of bytes), must not overlap any chunk,
// and may be dirty — every byte is overwritten. A malformed destination
// is reported before anything is written.
func (c *Code) RepairBlockInto(failed int, helpers []int, chunks [][]byte, dst []byte) error {
	// A chunk is 1/alpha of a block, so it must divide into U/alpha units.
	_, chunkSize, err := lincode.Survey(chunks, c.d, c.expand, false)
	if err != nil {
		return err
	}
	if len(dst) != chunkSize*c.alpha {
		return fmt.Errorf("%w: block destination has %d bytes, want %d", ErrBlockSizeMismatch, len(dst), chunkSize*c.alpha)
	}
	if c.base == nil {
		// Reed-Solomon base: chunks are whole blocks; decode and re-encode
		// the failed block through the engine's fused rebuild plan
		// (generator rows x inverse), memoized per (helper set, failed).
		if err := lincode.ValidateHelpers(c.n, c.d, failed, helpers); err != nil {
			return err
		}
		return c.SolveInto(helpers, chunks, []int{failed}, [][]byte{dst})
	}
	comb, err := c.base.RepairCombinerPlan(failed, helpers) // validates the helper set
	if err != nil {
		return err
	}
	usize := chunkSize / c.expand
	canon := c.Units(make([][]byte, 0, c.units), failed, dst)
	in, outs := make([][]byte, c.d), make([][]byte, c.alpha)
	for t := 0; t < c.expand; t++ {
		for j, ch := range chunks {
			in[j] = ch[t*usize : (t+1)*usize : (t+1)*usize]
		}
		for s := 0; s < c.alpha; s++ {
			outs[s] = canon[s*c.expand+t]
		}
		comb.Run(in, outs)
	}
	return nil
}

// Repair runs both sides of a reconstruction in one call: helper chunks are
// computed from blocks (length n, failed entry ignored) and combined into
// the regenerated block.
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

// WarmRepair precompiles and caches the repair plan for the given failed
// block and helper set without touching any data, so a recovery pass can
// pay plan compilation once up front instead of stalling its pipeline on
// the first repair of each helper rotation.
func (c *Code) WarmRepair(failed int, helpers []int) error {
	if c.base != nil {
		_, err := c.base.RepairCombinerPlan(failed, helpers)
		return err
	}
	if err := lincode.ValidateHelpers(c.n, c.d, failed, helpers); err != nil {
		return err
	}
	_, err := c.Plan(helpers, []int{failed})
	return err
}
