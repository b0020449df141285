// Package lincode is the one linear-code engine under every codec in this
// repository. A code here is nothing but a generator matrix: n blocks of
// units units each, every unit a GF(2^8) linear combination of the k*units
// units of the k data shards. Systematic Reed-Solomon, product-matrix MSR,
// Azure-style LRC and Carousel codes differ only in how they build that
// matrix (and, for Carousel, in the order a block stores its units); what
// follows from it is the same for all of them and lives here once:
//
//   - the survey of a caller's block slice (count, nil entries, one common
//     size, unit alignment) and the typed errors it reports;
//   - EncodeInto over caller-owned, possibly dirty blocks, and the
//     allocating Encode on top of it;
//   - SolveInto: any target blocks — or the k data shards — computed from
//     any k source blocks whose generator rows are independent, which is
//     any-k decode, block reconstruction and whole-block repair at once;
//   - Verify;
//   - the memo of survivor-set inverses and compiled plans (Memo), which
//     builds each key once however many goroutines miss on it together;
//   - ValidateHelpers for the repair entry points.
//
// Every product runs through a compiled codeplan.Plan, so surviving
// systematic units are copied, never recomputed, and destinations may be
// dirty. The engine is the single place a matrix becomes a run.
package lincode

import (
	"bytes"
	"errors"
	"fmt"

	"carousel/internal/codeplan"
	"carousel/internal/matrix"
	"carousel/internal/workpool"
)

// Argument errors shared by every codec; each codec package re-exports
// them under its own name, so errors.Is works against either.
var (
	// ErrTooFewBlocks is returned when fewer than k blocks are available.
	ErrTooFewBlocks = errors.New("erasure code: fewer than k blocks available")

	// ErrBlockSizeMismatch is returned when blocks differ in size, are
	// empty, or are not a multiple of the code's units per block.
	ErrBlockSizeMismatch = errors.New("erasure code: bad block size")

	// ErrBlockCount is returned when a block slice has the wrong length or
	// a nil entry where every block is required.
	ErrBlockCount = errors.New("erasure code: wrong number of blocks")

	// ErrBadHelpers is returned for an invalid failed block or helper set.
	ErrBadHelpers = errors.New("erasure code: invalid helper set")
)

// Code is an (n, k) linear code over GF(2^8) given by its generator. It is
// immutable after New apart from its memo and safe for concurrent use.
type Code struct {
	n, k, units int

	// gen is (n*units) x (k*units): row b*units+u holds the coefficients of
	// canonical unit u of block b over the data shards' units.
	gen *matrix.Matrix

	// toStored[b][u] is the position at which block b stores canonical unit
	// u; nil means every block stores its units in canonical order.
	toStored [][]int

	// systematic: the k data shards are blocks 0..k-1 verbatim, so a decode
	// that has them all returns them without touching a byte.
	systematic bool

	encPlan *codeplan.Plan
	invs    Memo[*matrix.Matrix] // k source blocks -> inverse of their rows
	plans   Memo[*codeplan.Plan] // k source blocks (+ target blocks) -> schedule
}

// New returns the code with the given generator, which must have n*units
// rows and k*units columns. toStored is the optional per-block stored-order
// permutation (nil: canonical order). Plan runs are striped across
// workpool.Width executors.
func New(n, k, units int, gen *matrix.Matrix, toStored [][]int) *Code {
	if gen.Rows() != n*units || gen.Cols() != k*units {
		panic(fmt.Sprintf("lincode: generator is %dx%d, want %dx%d", gen.Rows(), gen.Cols(), n*units, k*units))
	}
	return &Code{
		n: n, k: k, units: units, gen: gen, toStored: toStored,
		systematic: toStored == nil && gen.SubMatrix(0, k*units, 0, k*units).IsIdentity(),
		encPlan:    codeplan.Compile(gen),
	}
}

// N returns the total number of blocks per stripe.
func (c *Code) N() int { return c.n }

// K returns the number of data shards per stripe; any K independent blocks
// decode them.
func (c *Code) K() int { return c.k }

// GeneratorMatrix returns a copy of the generator.
func (c *Code) GeneratorMatrix() *matrix.Matrix { return c.gen.Clone() }

// EncodePlan returns the compiled schedule of the generator that every
// encode replays.
func (c *Code) EncodePlan() *codeplan.Plan { return c.encPlan }

// CheckSize reports whether size is a positive multiple of units.
func CheckSize(size, units int) error {
	if size <= 0 || size%units != 0 {
		return fmt.Errorf("%w: size %d must be a positive multiple of %d", ErrBlockSizeMismatch, size, units)
	}
	return nil
}

// Survey validates a slice of buffers: exactly want entries, one common
// size that is a positive multiple of units, and — unless sparse — no nil
// entry. A sparse survey marks unavailable blocks by nil and also returns
// the indices of the present ones, in order.
func Survey(bufs [][]byte, want, units int, sparse bool) (present []int, size int, err error) {
	if len(bufs) != want {
		return nil, 0, fmt.Errorf("%w: got %d, want %d", ErrBlockCount, len(bufs), want)
	}
	if sparse {
		present = make([]int, 0, want)
	}
	size = -1
	for i, b := range bufs {
		switch {
		case b == nil && sparse:
			continue
		case b == nil:
			return nil, 0, fmt.Errorf("%w: entry %d is nil", ErrBlockCount, i)
		case size == -1:
			size = len(b)
		case len(b) != size:
			return nil, 0, fmt.Errorf("%w: entry %d has %d bytes, want %d", ErrBlockSizeMismatch, i, len(b), size)
		}
		if sparse {
			present = append(present, i)
		}
	}
	if size == -1 {
		return nil, 0, fmt.Errorf("%w: no blocks present", ErrTooFewBlocks)
	}
	if err := CheckSize(size, units); err != nil {
		return nil, 0, err
	}
	return present, size, nil
}

// checkDst validates caller-owned destinations: want buffers of size bytes.
func checkDst(dst [][]byte, want, size int) error {
	if len(dst) != want {
		return fmt.Errorf("%w: got %d destinations, want %d", ErrBlockCount, len(dst), want)
	}
	for i, b := range dst {
		if b == nil {
			return fmt.Errorf("%w: destination %d is nil", ErrBlockCount, i)
		}
		if len(b) != size {
			return fmt.Errorf("%w: destination %d has %d bytes, want %d", ErrBlockSizeMismatch, i, len(b), size)
		}
	}
	return nil
}

// ValidateHelpers checks a repair's arguments for an n-block code repaired
// from d helpers: failed in range, exactly d helpers, each in range,
// distinct, and none the failed block. It allocates nothing.
func ValidateHelpers(n, d, failed int, helpers []int) error {
	if failed < 0 || failed >= n {
		return fmt.Errorf("%w: failed block %d out of range [0,%d)", ErrBadHelpers, failed, n)
	}
	if len(helpers) != d {
		return fmt.Errorf("%w: got %d helpers, want d=%d", ErrBadHelpers, len(helpers), d)
	}
	var seen [4]uint64 // n <= 256 over GF(2^8)
	for _, h := range helpers {
		switch {
		case h < 0 || h >= n:
			return fmt.Errorf("%w: helper %d out of range [0,%d)", ErrBadHelpers, h, n)
		case h == failed:
			return fmt.Errorf("%w: helper %d is the failed block", ErrBadHelpers, h)
		case seen[h>>6]&(1<<(h&63)) != 0:
			return fmt.Errorf("%w: duplicate helper %d", ErrBadHelpers, h)
		}
		seen[h>>6] |= 1 << (h & 63)
	}
	return nil
}

// Units appends views of block b's units, in canonical order, to dst: the
// rows of the generator line up with what it returns.
func (c *Code) Units(dst [][]byte, b int, block []byte) [][]byte {
	usize := len(block) / c.units
	for u := 0; u < c.units; u++ {
		pos := u
		if c.toStored != nil {
			pos = c.toStored[b][u]
		}
		dst = append(dst, block[pos*usize:(pos+1)*usize:(pos+1)*usize])
	}
	return dst
}

// shardUnits returns views of the units of k data shards, which are always
// in canonical order.
func (c *Code) shardUnits(shards [][]byte) [][]byte {
	usize := len(shards[0]) / c.units
	out := make([][]byte, 0, c.k*c.units)
	for _, s := range shards {
		for u := 0; u < c.units; u++ {
			out = append(out, s[u*usize:(u+1)*usize:(u+1)*usize])
		}
	}
	return out
}

// newBlocks allocates count zeroed buffers of size bytes.
func newBlocks(count, size int) [][]byte {
	out := make([][]byte, count)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}

// Encode encodes k equally sized data shards into n freshly allocated
// blocks of the same size, which must be a positive multiple of the code's
// units per block. The shards are not modified.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	_, size, err := Survey(data, c.k, c.units, false)
	if err != nil {
		return nil, err
	}
	blocks := newBlocks(c.n, size)
	c.encode(data, blocks)
	return blocks, nil
}

// EncodeInto is Encode into caller-owned memory: blocks must hold n
// buffers of the shards' size, none overlapping a shard. The buffers may
// be dirty (pooled) — every byte of every block is overwritten, because a
// compiled plan opens each output with COPY, MULSLICE or CLEAR and only
// then accumulates into it. The shards are only read, so they may alias
// the caller's file bytes. A malformed argument is reported before
// anything is written.
func (c *Code) EncodeInto(data, blocks [][]byte) error {
	_, size, err := Survey(data, c.k, c.units, false)
	if err != nil {
		return err
	}
	if err := checkDst(blocks, c.n, size); err != nil {
		return err
	}
	c.encode(data, blocks)
	return nil
}

func (c *Code) encode(data, blocks [][]byte) {
	out := make([][]byte, 0, c.n*c.units)
	for b, block := range blocks {
		out = c.Units(out, b, block)
	}
	c.encPlan.RunParallel(c.shardUnits(data), out, workpool.Width())
}

// Decode recovers the k data shards from the first k available blocks.
// blocks must have length n with nil entries for unavailable blocks. The
// shards are freshly allocated, except that a systematic code with all its
// data blocks present returns those blocks themselves.
func (c *Code) Decode(blocks [][]byte) ([][]byte, error) {
	present, size, err := Survey(blocks, c.n, c.units, true)
	if err != nil {
		return nil, err
	}
	if len(present) < c.k {
		return nil, fmt.Errorf("%w: %d present, need %d", ErrTooFewBlocks, len(present), c.k)
	}
	return c.decodeFrom(blocks, present[:c.k], size)
}

// DecodeFrom is Decode from the k source blocks the caller chose, for codes
// in which not every k blocks are independent. The sources must be present
// in blocks (length n, nil entries unavailable).
func (c *Code) DecodeFrom(blocks [][]byte, sources []int) ([][]byte, error) {
	_, size, err := Survey(blocks, c.n, c.units, true)
	if err != nil {
		return nil, err
	}
	if err := c.checkIndices(sources, nil); err != nil {
		return nil, err
	}
	for _, s := range sources {
		if blocks[s] == nil {
			return nil, fmt.Errorf("%w: source block %d is not present", ErrTooFewBlocks, s)
		}
	}
	return c.decodeFrom(blocks, sources, size)
}

func (c *Code) decodeFrom(blocks [][]byte, sources []int, size int) ([][]byte, error) {
	if c.systematic && isPrefix(sources) {
		return blocks[:c.k:c.k], nil
	}
	in := make([][]byte, c.k)
	for i, s := range sources {
		in[i] = blocks[s]
	}
	data := newBlocks(c.k, size)
	if err := c.solve(sources, in, nil, data); err != nil {
		return nil, err
	}
	return data, nil
}

// isPrefix reports whether idx is 0, 1, ..., len(idx)-1.
func isPrefix(idx []int) bool {
	for i, v := range idx {
		if v != i {
			return false
		}
	}
	return true
}

// SolveInto computes blocks from blocks: in[i] is block sources[i] (k of
// them, with independent generator rows), and out[j] receives block
// targets[j] — or, when targets is empty, data shard j of k. The destinations
// are caller-owned, must not overlap a source, and may be dirty; every byte
// is overwritten. A malformed argument is reported before anything is
// written.
func (c *Code) SolveInto(sources []int, in [][]byte, targets []int, out [][]byte) error {
	if err := c.checkIndices(sources, targets); err != nil {
		return err
	}
	_, size, err := Survey(in, c.k, c.units, false)
	if err != nil {
		return err
	}
	want := len(targets)
	if want == 0 {
		want = c.k
	}
	if err := checkDst(out, want, size); err != nil {
		return err
	}
	return c.solve(sources, in, targets, out)
}

// solve runs the (sources, targets) plan over validated buffers.
func (c *Code) solve(sources []int, in [][]byte, targets []int, out [][]byte) error {
	plan, err := c.plan(sources, targets)
	if err != nil {
		return err
	}
	inU := make([][]byte, 0, c.k*c.units)
	for i, s := range sources {
		inU = c.Units(inU, s, in[i])
	}
	var outU [][]byte
	if len(targets) == 0 {
		outU = c.shardUnits(out)
	} else {
		outU = make([][]byte, 0, len(targets)*c.units)
		for j, t := range targets {
			outU = c.Units(outU, t, out[j])
		}
	}
	plan.RunParallel(inU, outU, workpool.Width())
	return nil
}

// Plan returns the memoized compiled schedule SolveInto replays for the
// given source blocks and targets (none: the data shards), building it on
// first use. Warming a repair and the op-count tests call it directly.
func (c *Code) Plan(sources, targets []int) (*codeplan.Plan, error) {
	if err := c.checkIndices(sources, targets); err != nil {
		return nil, err
	}
	return c.plan(sources, targets)
}

// checkIndices validates a solve's block indices: exactly k sources, every
// index a block of this code.
func (c *Code) checkIndices(sources, targets []int) error {
	if len(sources) != c.k {
		return fmt.Errorf("%w: got %d source blocks, want %d", ErrBlockCount, len(sources), c.k)
	}
	for _, idx := range [2][]int{sources, targets} {
		for _, b := range idx {
			if b < 0 || b >= c.n {
				return fmt.Errorf("%w: block index %d out of range [0,%d)", ErrBlockCount, b, c.n)
			}
		}
	}
	return nil
}

// plan is the memo lookup behind Plan and solve. The key is the source
// indices followed by the target indices, one byte each (n <= 256): the
// first k bytes are always the sources, so a decode key (k bytes) never
// collides with a rebuild key (more).
func (c *Code) plan(sources, targets []int) (*codeplan.Plan, error) {
	var buf [32]byte
	key := AppendIndices(AppendIndices(buf[:0], sources), targets)
	return c.plans.Get(key, func() (*codeplan.Plan, error) {
		inv, err := c.invs.Get(key[:c.k], func() (*matrix.Matrix, error) {
			inv, err := c.gen.SelectRows(c.rows(sources)).Inverse()
			if err != nil {
				return nil, fmt.Errorf("lincode: blocks %v do not decode: %w", sources, err)
			}
			return inv, nil
		})
		if err != nil {
			return nil, err
		}
		if len(targets) > 0 {
			inv = c.gen.SelectRows(c.rows(targets)).Mul(inv)
		}
		return codeplan.Compile(inv), nil
	})
}

// AppendIndices appends block indices to a Memo key, one byte each.
func AppendIndices(key []byte, idx []int) []byte {
	for _, b := range idx {
		key = append(key, byte(b))
	}
	return key
}

// rows lists the generator rows of the given blocks, block by block.
func (c *Code) rows(blocks []int) []int {
	rows := make([]int, 0, len(blocks)*c.units)
	for _, b := range blocks {
		for u := 0; u < c.units; u++ {
			rows = append(rows, b*c.units+u)
		}
	}
	return rows
}

// Verify reports whether a complete set of n blocks is consistent:
// re-encoding the data decoded from the first k must reproduce every block.
func (c *Code) Verify(blocks [][]byte) (bool, error) {
	if _, _, err := Survey(blocks, c.n, c.units, false); err != nil {
		return false, err
	}
	data, err := c.Decode(blocks)
	if err != nil {
		return false, err
	}
	expect, err := c.Encode(data)
	if err != nil {
		return false, err
	}
	for i := range blocks {
		if !bytes.Equal(expect[i], blocks[i]) {
			return false, nil
		}
	}
	return true, nil
}
