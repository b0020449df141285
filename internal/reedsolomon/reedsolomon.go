// Package reedsolomon implements systematic (n, k) Reed-Solomon erasure
// codes over GF(2^8), the baseline code of the Carousel paper and the d = k
// base of the Carousel construction.
//
// The generator matrix is an extended-Cauchy construction: the top k rows
// are the identity (the k data blocks are stored verbatim) and every k x k
// row submatrix is invertible, so any k of the n blocks decode the original
// data (the MDS property). Reconstructing one block downloads k blocks, the
// behaviour the paper contrasts with MSR and Carousel codes in Fig. 7.
package reedsolomon

import (
	"errors"
	"fmt"

	"carousel/internal/lincode"
	"carousel/internal/matrix"
)

// Argument errors: the engine's, shared with every other codec.
var (
	// ErrTooFewBlocks is returned when fewer than k blocks are available
	// for a decode or reconstruction.
	ErrTooFewBlocks = lincode.ErrTooFewBlocks

	// ErrBlockSizeMismatch is returned when the provided blocks are empty
	// or do not all have the same length.
	ErrBlockSizeMismatch = lincode.ErrBlockSizeMismatch

	// ErrBlockCount is returned when the number of provided blocks does not
	// match the code parameters.
	ErrBlockCount = lincode.ErrBlockCount
)

// Code is a systematic (n, k) Reed-Solomon code: the linear-code engine
// over the extended-Cauchy generator, one unit per block, run serially.
// Encode, EncodeInto, Decode and Verify are the engine's; the first k
// blocks of an encoding are copies of the data. It is safe for concurrent
// use.
type Code struct {
	*lincode.Code
}

// New returns a systematic (n, k) Reed-Solomon code.
func New(n, k int) (*Code, error) {
	if k <= 0 {
		return nil, fmt.Errorf("reedsolomon: k must be positive, got %d", k)
	}
	if n <= k {
		return nil, fmt.Errorf("reedsolomon: n must exceed k, got n=%d k=%d", n, k)
	}
	gen, err := matrix.SystematicCauchy(n, k)
	if err != nil {
		return nil, fmt.Errorf("reedsolomon: building generator: %w", err)
	}
	return &Code{lincode.New(n, k, 1, gen, nil)}, nil
}

// Reconstruct fills in the missing (nil) entries of blocks, which must have
// length n. At least k entries must be non-nil. All non-nil blocks must have
// equal length. On success every entry of blocks is populated.
func (c *Code) Reconstruct(blocks [][]byte) error {
	present, size, err := lincode.Survey(blocks, c.N(), 1, true)
	if err != nil {
		return err
	}
	if len(present) == c.N() {
		return nil
	}
	if len(present) < c.K() {
		return fmt.Errorf("%w: %d present, need %d", ErrTooFewBlocks, len(present), c.K())
	}
	present = present[:c.K()]
	in := make([][]byte, 0, c.K())
	for _, idx := range present {
		in = append(in, blocks[idx])
	}
	var missing []int
	var out [][]byte
	for i, b := range blocks {
		if b == nil {
			missing = append(missing, i)
			out = append(out, make([]byte, size))
		}
	}
	if err := c.SolveInto(present, in, missing, out); err != nil {
		return err
	}
	for i, idx := range missing {
		blocks[idx] = out[i]
	}
	return nil
}

// ReconstructionTraffic returns the number of bytes downloaded to
// reconstruct one block of the given size: k blocks, per Section IV of the
// paper.
func (c *Code) ReconstructionTraffic(blockSize int) int {
	return c.K() * blockSize
}

// Split divides data into k equally sized shards, padding the last shard
// with zeros. The shard size is the smallest multiple of align covering
// ceil(len(data)/k) bytes; align must be positive. Split copies the data.
func Split(data []byte, k, align int) ([][]byte, int, error) {
	if k <= 0 || align <= 0 {
		return nil, 0, fmt.Errorf("reedsolomon: invalid split k=%d align=%d", k, align)
	}
	if len(data) == 0 {
		return nil, 0, errors.New("reedsolomon: cannot split empty data")
	}
	per := (len(data) + k - 1) / k
	per = (per + align - 1) / align * align
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = make([]byte, per)
		lo := i * per
		if lo < len(data) {
			hi := lo + per
			if hi > len(data) {
				hi = len(data)
			}
			copy(shards[i], data[lo:hi])
		}
	}
	return shards, per, nil
}

// Join reassembles the original data of the given total size from k shards
// produced by Split.
func Join(shards [][]byte, size int) ([]byte, error) {
	out := make([]byte, 0, size)
	for _, s := range shards {
		out = append(out, s...)
	}
	if len(out) < size {
		return nil, fmt.Errorf("reedsolomon: shards hold %d bytes, want %d", len(out), size)
	}
	return out[:size], nil
}
