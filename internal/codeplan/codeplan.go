// Package codeplan compiles GF(2^8) coefficient matrices into reusable
// execution plans for the unit-buffer products every codec in this
// repository performs (encode, decode, repair, degraded read).
//
// A plan is derived from the matrix once and then run over arbitrary
// buffers. Its schedule is described as typed ops:
//
//   - COPY for unit rows (a single coefficient of 1): surviving data units
//     are moved with memcpy and cost zero GF multiplications;
//   - CLEAR for all-zero rows;
//   - MUL/MULADD for everything else, one per nonzero coefficient, listed
//     in column-major order.
//
// The COPY and CLEAR ops run as they are. The general rows run as groups:
// rows that share one source list go to one gf256.MulSum call, which sums
// every source into registers and stores each destination once, instead of
// one pass over memory per coefficient (the ISA-L dot-product shape).
//
// Execution is tiled: the buffers are processed a tile of bytes at a time,
// every move and group per tile, with the tile sized from the groups'
// shape so one step's source and destination tiles fit in L1. Each source
// tile is loaded from memory once per step and re-read from L1 by every
// group. RunParallel stripes the byte range over the caller and the bounded
// helpers of internal/workpool without allocating per-stripe slice headers.
//
// Output buffers may be dirty. Every output unit is written by a COPY, a
// CLEAR or a MulSum — all overwrites — so an execution never reads what
// its destinations held before and callers may hand it recycled (pooled)
// memory without clearing it. The description keeps the same shape: the
// first op on every output is a COPY, CLEAR or MULSLICE, never a MULADD.
//
// Plans are immutable after Compile and safe for concurrent Run calls.
package codeplan

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"carousel/internal/gf256"
	"carousel/internal/matrix"
	"carousel/internal/obs"
	"carousel/internal/workpool"
)

// mRunNS is the wall time of whole plan executions, observed once per
// Run/RunParallel (never per tile or per group, which would poison the
// cache-resident inner loop); its count is the number of runs.
var mRunNS = obs.Default().Histogram("codeplan_run_ns")

// OpKind enumerates the schedule's operation types.
type OpKind uint8

const (
	// OpCopy sets out[Dst] = in[Src] (unit row, coefficient 1).
	OpCopy OpKind = iota
	// OpClear zeroes out[Dst] (all-zero row).
	OpClear
	// OpMul sets out[Dst] = Coef * in[Src] (first write of a general row).
	OpMul
	// OpMulAdd accumulates out[Dst] ^= Coef * in[Src].
	OpMulAdd
)

// String names the op kind for diagnostics and tests.
func (k OpKind) String() string {
	switch k {
	case OpCopy:
		return "COPY"
	case OpClear:
		return "CLEAR"
	case OpMul:
		return "MULSLICE"
	case OpMulAdd:
		return "MULADDSLICE"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one scheduled operation on whole unit buffers.
type Op struct {
	Kind OpKind
	Dst  int32 // output unit index
	Src  int32 // input unit index (unused for CLEAR)
	Coef byte  // coefficient (unused for COPY and CLEAR)
}

// Counts tallies a plan's schedule by op kind. Mul+MulAdd is the number of
// nonzero coefficients in the general rows: the GF multiplies per byte
// offset an execution needs (its groups may add a few by zero; see
// groupRows).
type Counts struct {
	Copy, Clear, Mul, MulAdd int
}

// Plan is a compiled schedule computing out = M * in over unit buffers.
type Plan struct {
	numIn, numOut int
	ops           []Op // moves first, then the multiplies in column-major order
	moves         int  // ops[:moves] are the COPY and CLEAR ops, run as they are
	groups        []*gf256.Group
	tile          int // bytes of every unit one execution step covers
	counts        Counts
}

// chunkBytes caps the tile: a plan with few sources steps over its buffers
// 16 KiB at a time, so per-step dispatch vanishes against the work. It goes
// no higher because power-of-two unit buffers are often mutually congruent
// modulo large powers of two (16 MiB blocks cut into 8 MiB units), so their
// tiles map to the same L1 sets: at 16 KiB a stream claims 4 ways of a
// 12-way 48 KiB L1 and two congruent streams still fit, where 32 KiB
// chunks thrashed (a 2-4x decode swing depending on allocator luck).
const chunkBytes = 16 << 10

// l1Bytes is the working set one step is sized to: every source tile the
// plan's groups read plus the destination tiles of the widest group, inside
// the 32 KiB that the smallest common amd64 L1 data cache holds. Sources
// are then loaded from L1 by every group after the first, and each
// destination tile is written once, from registers.
const l1Bytes = 32 << 10

// minTile keeps a step at several vectors per kernel call however many
// sources a plan has.
const minTile = 256

// maxGroupRows bounds a group. MulSum takes a group's rows four at a time,
// so a wider group costs the kernel nothing and saves calls per tile; the
// bound keeps its destination tiles a small share of the step's L1 budget.
const maxGroupRows = 8

// minParallelBytes is the buffer size below which RunParallel stays
// serial: striping cost would exceed the work.
const minParallelBytes = 64 << 10

// Compile builds the execution plan for the given matrix. Rows become:
// unit rows a COPY, zero rows a CLEAR, and all remaining rows MUL/MULADD
// ops, described column-by-column (input-major) and executed as groups of
// rows that share one source list (see groupRows).
func Compile(m *matrix.Matrix) *Plan {
	rows, cols := m.Rows(), m.Cols()
	p := &Plan{numIn: cols, numOut: rows}
	var general []int
	nnz := 0
	for r := 0; r < rows; r++ {
		if _, ok := m.UnitColumn(r); ok {
			p.counts.Copy++
		} else if n := m.RowNNZ(r); n == 0 {
			p.counts.Clear++
		} else {
			general = append(general, r)
			nnz += n
		}
	}
	p.ops = make([]Op, 0, p.counts.Copy+p.counts.Clear+nnz)
	for r := 0; r < rows; r++ {
		if src, ok := m.UnitColumn(r); ok {
			p.ops = append(p.ops, Op{Kind: OpCopy, Dst: int32(r), Src: int32(src)})
		} else if m.RowNNZ(r) == 0 {
			p.ops = append(p.ops, Op{Kind: OpClear, Dst: int32(r)})
		}
	}
	p.moves = len(p.ops)
	started := make([]bool, rows)
	for c := 0; c < cols; c++ {
		for _, r := range general {
			coef := m.At(r, c)
			if coef == 0 {
				continue
			}
			kind := OpMulAdd
			if !started[r] {
				kind = OpMul
				started[r] = true
				p.counts.Mul++
			} else {
				p.counts.MulAdd++
			}
			p.ops = append(p.ops, Op{Kind: kind, Dst: int32(r), Src: int32(c), Coef: coef})
		}
	}
	p.groupRows(m, general)
	return p
}

// groupRows partitions the general rows into the kernel calls an execution
// makes. Rows are ordered by their source support, so rows with identical
// supports are adjacent, then packed greedily into groups of at most
// maxGroupRows whose union support costs at most 5% more multiplies than
// the rows' nonzeros: a dense generator becomes a few groups over every
// source, and a block-diagonal one (a Kronecker-expanded base code) one
// group per block, instead of a dense kernel multiplying by its zeros.
// It also sizes the tile from the groups' shape.
func (p *Plan) groupRows(m *matrix.Matrix, rows []int) {
	cols := m.Cols()
	keys := make([]string, m.Rows())
	for _, r := range rows {
		b := make([]byte, (cols+7)/8)
		for c := 0; c < cols; c++ {
			if m.At(r, c) != 0 {
				b[c/8] |= 1 << (c % 8)
			}
		}
		keys[r] = string(b)
	}
	slices.SortStableFunc(rows, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })

	inUnion := make([]bool, cols)
	read := make([]bool, cols)
	var cur []int
	union, nnz, widest := 0, 0, 0
	flush := func() {
		var src []int
		for c, ok := range inUnion {
			if ok {
				src = append(src, c)
				read[c] = true
				inUnion[c] = false
			}
		}
		coef := make([]byte, 0, len(cur)*len(src))
		for _, r := range cur {
			for _, c := range src {
				coef = append(coef, m.At(r, c))
			}
		}
		p.groups = append(p.groups, gf256.NewGroup(cur, src, coef))
		widest = max(widest, len(cur))
		cur, union, nnz = nil, 0, 0
	}
	for _, r := range rows {
		added := 0
		for c := 0; c < cols; c++ {
			if m.At(r, c) != 0 && !inUnion[c] {
				added++
			}
		}
		n := m.RowNNZ(r)
		if len(cur) > 0 && (len(cur) == maxGroupRows || 20*(union+added)*(len(cur)+1) > 21*(nnz+n)) {
			flush()
			added = n
		}
		for c := 0; c < cols; c++ {
			if m.At(r, c) != 0 {
				inUnion[c] = true
			}
		}
		cur = append(cur, r)
		union += added
		nnz += n
	}
	if len(cur) > 0 {
		flush()
	}

	streams := widest
	for _, ok := range read {
		if ok {
			streams++
		}
	}
	p.tile = chunkBytes
	if streams > 0 {
		p.tile = min(chunkBytes, max(minTile, l1Bytes/streams&^63))
	}
}

// NumIn returns the number of input units the plan consumes.
func (p *Plan) NumIn() int { return p.numIn }

// NumOut returns the number of output units the plan produces.
func (p *Plan) NumOut() int { return p.numOut }

// Counts returns the schedule's op tally.
func (p *Plan) Counts() Counts { return p.counts }

// Ops returns a copy of the schedule, for tests and diagnostics.
func (p *Plan) Ops() []Op {
	out := make([]Op, len(p.ops))
	copy(out, p.ops)
	return out
}

// DstKinds returns, per output unit, the kind of the first op scheduled on
// it: OpCopy, OpClear, or OpMul for computed units — never OpMulAdd, which
// is what lets executions run into dirty buffers. Used by tests asserting
// that invariant, and that surviving data units are never recomputed.
func (p *Plan) DstKinds() []OpKind {
	kinds := make([]OpKind, p.numOut)
	seen := make([]bool, p.numOut)
	for _, op := range p.ops {
		if !seen[op.Dst] {
			kinds[op.Dst] = op.Kind
			seen[op.Dst] = true
		}
	}
	return kinds
}

// check validates buffer shapes: the unit counts must match the matrix and
// every buffer must have the same length. It returns that length.
func (p *Plan) check(in, out [][]byte) int {
	if len(in) != p.numIn || len(out) != p.numOut {
		panic(fmt.Sprintf("codeplan: shape mismatch: plan %dx%d, in %d, out %d",
			p.numOut, p.numIn, len(in), len(out)))
	}
	size := 0
	if p.numOut > 0 {
		size = len(out[0])
	} else if p.numIn > 0 {
		size = len(in[0])
	}
	for i, b := range in {
		if len(b) != size {
			panic(fmt.Sprintf("codeplan: in[%d] has %d bytes, want %d", i, len(b), size))
		}
	}
	for i, b := range out {
		if len(b) != size {
			panic(fmt.Sprintf("codeplan: out[%d] has %d bytes, want %d", i, len(b), size))
		}
	}
	return size
}

// Run executes the plan serially: out = M * in, element-wise across the
// unit buffers. All buffers must share one length; in and out must not
// overlap. out is fully overwritten, whatever it held (see the package
// comment).
func (p *Plan) Run(in, out [][]byte) {
	size := p.check(in, out)
	t0 := time.Now()
	p.runRange(in, out, 0, size)
	mRunNS.ObserveSince(t0)
}

// RunParallel executes the plan with the byte range striped across up to
// workers executors (workpool.Parallel). Each stripe replays the full
// schedule over its range, so stripes never write the same bytes.
// workers <= 1 or small buffers fall back to the serial path.
func (p *Plan) RunParallel(in, out [][]byte, workers int) {
	size := p.check(in, out)
	t0 := time.Now()
	if workers <= 1 || size < minParallelBytes {
		p.runRange(in, out, 0, size)
		mRunNS.ObserveSince(t0)
		return
	}
	stripe := (size + workers - 1) / workers
	stripe = (stripe + 63) / 64 * 64
	r := stripeRunPool.Get().(*stripeRun)
	r.p, r.in, r.out, r.stripe, r.size = p, in, out, stripe, size
	workpool.Parallel((size+stripe-1)/stripe, workers, r.do)
	r.p, r.in, r.out = nil, nil, nil
	stripeRunPool.Put(r)
	mRunNS.ObserveSince(t0)
}

// stripeRun is one RunParallel call's arguments. stripeRunPool recycles
// it with do bound, so handing Parallel the stripe function allocates
// nothing.
type stripeRun struct {
	p            *Plan
	in, out      [][]byte
	stripe, size int
	do           func(i int)
}

var stripeRunPool = sync.Pool{New: func() any {
	r := new(stripeRun)
	r.do = r.runStripe
	return r
}}

// runStripe runs the plan over stripe i of the call's byte range.
func (r *stripeRun) runStripe(i int) {
	lo := i * r.stripe
	r.p.runRange(r.in, r.out, lo, min(lo+r.stripe, r.size))
}

// runRange executes the plan over [lo, hi) one tile at a time: the moves,
// then one kernel call per group. A remainder under one vector joins the
// last tile rather than making a step of its own.
func (p *Plan) runRange(in, out [][]byte, lo, hi int) {
	for tlo := lo; tlo < hi; {
		thi := tlo + p.tile
		if thi > hi-64 {
			thi = hi
		}
		for _, op := range p.ops[:p.moves] {
			if op.Kind == OpCopy {
				copy(out[op.Dst][tlo:thi], in[op.Src][tlo:thi])
			} else {
				clear(out[op.Dst][tlo:thi])
			}
		}
		for _, g := range p.groups {
			gf256.MulSum(g, out, in, tlo, thi)
		}
		tlo = thi
	}
}
