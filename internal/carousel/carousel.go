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
// round-robin (package unitplan); symbol remapping by the inverse of the
// selected rows turns exactly those units into original data; finally the
// units of each block are reordered so data units form a contiguous prefix.
//
// Blocks are laid out as [K data units | U-K parity units] for the first p
// blocks and as U parity units for the rest. Block i < p carries the file
// byte range [i*K, (i+1)*K) * UnitSize contiguously at its front — the
// property MapReduce splits rely on.
package carousel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"carousel/internal/codeplan"
	"carousel/internal/matrix"
	"carousel/internal/msr"
	"carousel/internal/unitplan"
)

// Common argument errors.
var (
	// ErrTooFewBlocks is returned when fewer than k blocks are available.
	ErrTooFewBlocks = errors.New("carousel: fewer than k blocks available")

	// ErrBlockSizeMismatch is returned for inconsistent or misaligned
	// block sizes.
	ErrBlockSizeMismatch = errors.New("carousel: bad block size")

	// ErrBlockCount is returned when the number of blocks does not match
	// the code parameters.
	ErrBlockCount = errors.New("carousel: wrong number of blocks")

	// ErrBadHelpers is returned for invalid repair helper sets.
	ErrBadHelpers = errors.New("carousel: invalid helper set")
)

// Code is an (n, k, d, p) Carousel code. Construct with New; a Code is safe
// for concurrent use.
type Code struct {
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
	workers    int  // executors used by Encode and Decode (1 = serial)

	base *msr.Code // repair machinery for d > k; nil when d == k

	// encPlan is the compiled schedule of gen, built once at construction
	// and replayed by every Encode.
	encPlan *codeplan.Plan

	mu           sync.Mutex
	decCache     map[string]*matrix.Matrix
	decPlans     map[string]*codeplan.Plan // survivor set -> compiled decode schedule
	rebuildPlans map[string]*codeplan.Plan // failed+helpers -> compiled rebuild schedule
	readCache    map[string]*readSolver
}

// Option configures a Code at construction.
type Option func(*Code)

// WithEncodeConcurrency sets the number of executors Encode and Decode
// spread the unit buffers across. The default is GOMAXPROCS — every core
// the runtime will schedule — so codecs saturate the machine out of the
// box; pass 1 to force serial execution (ablation baselines and
// single-stream fairness tests do).
func WithEncodeConcurrency(workers int) Option {
	return func(c *Code) {
		if workers < 1 {
			workers = 1
		}
		c.workers = workers
	}
}

// New constructs an (n, k, d, p) Carousel code.
//
// Requirements: 1 <= k < n; k <= p <= n; and either d == k (Reed-Solomon
// base) or 2 <= k <= d < n with d >= 2k-2 (product-matrix MSR base).
func New(n, k, d, p int, opts ...Option) (*Code, error) {
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
	c := &Code{
		n: n, k: k, d: d, p: p,
		workers:      runtime.GOMAXPROCS(0),
		decCache:     make(map[string]*matrix.Matrix),
		decPlans:     make(map[string]*codeplan.Plan),
		rebuildPlans: make(map[string]*codeplan.Plan),
		readCache:    make(map[string]*readSolver),
	}
	for _, opt := range opts {
		opt(c)
	}
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

	expanded := baseGen.ExpandIdentity(pFactor(k, c.alpha, p))
	plan, err := unitplan.Choose(expanded, n, k, c.alpha, p)
	if err != nil {
		return nil, fmt.Errorf("carousel: unit selection: %w", err)
	}
	c.expand = plan.P
	c.kUnits = plan.K
	c.units = plan.U
	c.chosen = plan.Chosen
	c.structured = plan.Structured

	g0 := expanded.SelectRows(plan.SelectionRows())
	g0inv, err := g0.Inverse()
	if err != nil {
		return nil, fmt.Errorf("carousel: symbol remapping (plan verified invertible, so this is a bug): %w", err)
	}
	c.gen = expanded.Mul(g0inv)

	c.buildPermutations()
	if err := c.checkSystematicRows(); err != nil {
		return nil, err
	}
	c.encPlan = codeplan.Compile(c.gen)
	return c, nil
}

// pFactor returns the P of the irreducible fraction K/P = k*alpha/p.
func pFactor(k, alpha, p int) int {
	g := gcd(k*alpha, p)
	return p / g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
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

// N returns the total number of blocks per stripe.
func (c *Code) N() int { return c.n }

// K returns the number of original data blocks' worth of content per
// stripe.
func (c *Code) K() int { return c.k }

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

// GeneratorMatrix returns a copy of the remapped canonical generator, used
// by the Fig. 5 sparsity analysis.
func (c *Code) GeneratorMatrix() *matrix.Matrix { return c.gen.Clone() }

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

// checkBlockSize validates block size alignment.
func (c *Code) checkBlockSize(size int) error {
	if size <= 0 || size%c.units != 0 {
		return fmt.Errorf("%w: block size %d must be a positive multiple of %d", ErrBlockSizeMismatch, size, c.units)
	}
	return nil
}

// canonicalUnits returns views of a block's units in canonical order.
func (c *Code) canonicalUnits(i int, block []byte) [][]byte {
	return c.appendCanonicalUnits(make([][]byte, 0, c.units), i, block)
}

// appendCanonicalUnits appends views of a block's units, in canonical
// order, to dst — the allocation-free form the Into entry points build
// their plan arguments with.
func (c *Code) appendCanonicalUnits(dst [][]byte, i int, block []byte) [][]byte {
	usize := len(block) / c.units
	for u := 0; u < c.units; u++ {
		pos := c.toStored[i][u]
		dst = append(dst, block[pos*usize:(pos+1)*usize:(pos+1)*usize])
	}
	return dst
}

// shardSize validates the k data shards of an encode and returns their
// common size.
func (c *Code) shardSize(data [][]byte) (int, error) {
	if len(data) != c.k {
		return 0, fmt.Errorf("%w: got %d data shards, want %d", ErrBlockCount, len(data), c.k)
	}
	size := -1
	for i, b := range data {
		if b == nil {
			return 0, fmt.Errorf("%w: data shard %d is nil", ErrBlockCount, i)
		}
		if size == -1 {
			size = len(b)
		} else if len(b) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrBlockSizeMismatch, i, len(b), size)
		}
	}
	if err := c.checkBlockSize(size); err != nil {
		return 0, err
	}
	return size, nil
}

// Encode encodes k equally sized data shards into n freshly allocated
// blocks of the same size. Shard sizes must be multiples of
// UnitsPerBlock(). Conceptually the original data is the concatenation of
// the shards; block i < p stores the byte range DataRange(i) verbatim at
// its front.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	size, err := c.shardSize(data)
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, c.n)
	for i := range blocks {
		blocks[i] = make([]byte, size)
	}
	if err := c.EncodeInto(data, blocks); err != nil {
		return nil, err
	}
	return blocks, nil
}

// EncodeInto is Encode into caller-owned memory: blocks must hold n
// buffers of the shards' size, none overlapping a shard. The buffers may
// be dirty (pooled) — every byte of every block is overwritten, because a
// compiled plan opens each output with COPY, MULSLICE or CLEAR and only
// then accumulates into it. The shards are only read, so they may alias
// the caller's file bytes. A malformed destination is reported before
// anything is written.
func (c *Code) EncodeInto(data, blocks [][]byte) error {
	size, err := c.shardSize(data)
	if err != nil {
		return err
	}
	if len(blocks) != c.n {
		return fmt.Errorf("%w: got %d destination blocks, want %d", ErrBlockCount, len(blocks), c.n)
	}
	for i, b := range blocks {
		if b == nil {
			return fmt.Errorf("%w: destination block %d is nil", ErrBlockCount, i)
		}
		if len(b) != size {
			return fmt.Errorf("%w: destination block %d has %d bytes, want %d", ErrBlockSizeMismatch, i, len(b), size)
		}
	}
	usize := size / c.units
	in := make([][]byte, 0, c.k*c.units)
	for _, shard := range data {
		for u := 0; u < c.units; u++ {
			in = append(in, shard[u*usize:(u+1)*usize:(u+1)*usize])
		}
	}
	out := make([][]byte, 0, c.n*c.units)
	for i, b := range blocks {
		out = c.appendCanonicalUnits(out, i, b)
	}
	c.encPlan.RunParallel(in, out, c.workers)
	return nil
}

// Verify checks that a complete set of n blocks is consistent: re-encoding
// the decoded data must reproduce every block. It returns false when any
// block is corrupted.
func (c *Code) Verify(blocks [][]byte) (bool, error) {
	if len(blocks) != c.n {
		return false, fmt.Errorf("%w: got %d blocks, want %d", ErrBlockCount, len(blocks), c.n)
	}
	for i, b := range blocks {
		if b == nil {
			return false, fmt.Errorf("%w: block %d is nil", ErrBlockCount, i)
		}
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
		if !bytesEqual(expect[i], blocks[i]) {
			return false, nil
		}
	}
	return true, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Decode recovers the k data shards from any k available blocks. blocks
// must have length n with nil entries for unavailable blocks.
func (c *Code) Decode(blocks [][]byte) ([][]byte, error) {
	present, size, err := c.survey(blocks)
	if err != nil {
		return nil, err
	}
	if len(present) < c.k {
		return nil, fmt.Errorf("%w: %d present, need %d", ErrTooFewBlocks, len(present), c.k)
	}
	present = present[:c.k]
	plan, err := c.decodePlan(present)
	if err != nil {
		return nil, err
	}
	in := make([][]byte, 0, c.k*c.units)
	for _, idx := range present {
		in = append(in, c.canonicalUnits(idx, blocks[idx])...)
	}
	data := make([][]byte, c.k)
	out := make([][]byte, 0, c.k*c.units)
	usize := size / c.units
	for i := range data {
		data[i] = make([]byte, size)
		for u := 0; u < c.units; u++ {
			out = append(out, data[i][u*usize:(u+1)*usize:(u+1)*usize])
		}
	}
	plan.RunParallel(in, out, c.workers)
	return data, nil
}

// survey validates the block slice and returns the present indices and the
// common block size.
func (c *Code) survey(blocks [][]byte) (present []int, size int, err error) {
	if len(blocks) != c.n {
		return nil, 0, fmt.Errorf("%w: got %d blocks, want %d", ErrBlockCount, len(blocks), c.n)
	}
	size = -1
	present = make([]int, 0, c.n)
	for i, b := range blocks {
		if b == nil {
			continue
		}
		if size == -1 {
			size = len(b)
		} else if len(b) != size {
			return nil, 0, fmt.Errorf("%w: block %d has %d bytes, want %d", ErrBlockSizeMismatch, i, len(b), size)
		}
		present = append(present, i)
	}
	if size == -1 {
		return nil, 0, fmt.Errorf("%w: no blocks present", ErrTooFewBlocks)
	}
	if err := c.checkBlockSize(size); err != nil {
		return nil, 0, err
	}
	return present, size, nil
}

// decodePlan returns the cached compiled decode schedule for a survivor
// block set: the kU x kU inverse lowered to COPY/MUL/MULADD ops, so units
// that survived verbatim are moved rather than recomputed.
func (c *Code) decodePlan(present []int) (*codeplan.Plan, error) {
	key := survivorKey(present)
	c.mu.Lock()
	if plan, ok := c.decPlans[key]; ok {
		c.mu.Unlock()
		return plan, nil
	}
	c.mu.Unlock()
	inv, err := c.decodeMatrix(present)
	if err != nil {
		return nil, err
	}
	plan := codeplan.Compile(inv)
	c.mu.Lock()
	c.decPlans[key] = plan
	c.mu.Unlock()
	return plan, nil
}

func survivorKey(present []int) string {
	key := make([]byte, len(present))
	for i, b := range present {
		key[i] = byte(b)
	}
	return string(key)
}

// decodeMatrix returns the cached kU x kU inverse for a survivor block set.
func (c *Code) decodeMatrix(present []int) (*matrix.Matrix, error) {
	key := make([]byte, len(present))
	for i, b := range present {
		key[i] = byte(b)
	}
	c.mu.Lock()
	if inv, ok := c.decCache[string(key)]; ok {
		c.mu.Unlock()
		return inv, nil
	}
	c.mu.Unlock()
	rows := make([]int, 0, c.k*c.units)
	for _, b := range present {
		for u := 0; u < c.units; u++ {
			rows = append(rows, b*c.units+u)
		}
	}
	inv, err := c.gen.SelectRows(rows).Inverse()
	if err != nil {
		return nil, fmt.Errorf("carousel: decode matrix for blocks %v: %w", present, err)
	}
	c.mu.Lock()
	c.decCache[string(key)] = inv
	c.mu.Unlock()
	return inv, nil
}
