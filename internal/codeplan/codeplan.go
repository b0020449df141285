// Package codeplan compiles GF(2^8) coefficient matrices into reusable
// execution plans for the unit-buffer products every codec in this
// repository performs (encode, decode, repair, degraded read).
//
// A plan is a flat schedule of typed ops derived from the matrix once and
// then replayed over arbitrary buffers:
//
//   - COPY for unit rows (a single coefficient of 1): surviving data units
//     are moved with memcpy and cost zero GF multiplications;
//   - CLEAR for all-zero rows;
//   - MUL/MULADD for everything else, emitted in column-major order so the
//     schedule walks each input unit once and consecutive ops reuse the
//     input chunk that is already hot in cache.
//
// Execution is chunked: the buffers are processed in cache-sized,
// 64-byte-aligned slices, with the whole schedule replayed per chunk, so
// destination and source chunks stay resident instead of streaming
// multi-megabyte rows through the cache once per coefficient. RunParallel
// stripes the chunks over the shared bounded pool in internal/workpool
// without allocating per-chunk slice headers.
//
// Output buffers may be dirty. Every output unit's first scheduled op is a
// COPY, CLEAR or MULSLICE — an overwrite — and only later ops accumulate
// into it, so an execution never reads what its destinations held before
// and callers may hand it recycled (pooled) memory without clearing it.
//
// Plans are immutable after Compile and safe for concurrent Run calls.
package codeplan

import (
	"fmt"
	"time"

	"carousel/internal/gf256"
	"carousel/internal/matrix"
	"carousel/internal/obs"
	"carousel/internal/workpool"
)

// mRunNS is the wall time of whole plan executions, observed once per
// Run/RunParallel (never per chunk or per op, which would poison the
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
// general GF multiply passes a single execution performs.
type Counts struct {
	Copy, Clear, Mul, MulAdd int
}

// Plan is a compiled schedule computing out = M * in over unit buffers.
type Plan struct {
	numIn, numOut int
	ops           []Op
	counts        Counts
}

// chunkBytes is the execution granularity: small enough that a source
// chunk, a destination chunk, and the 256-byte multiplication row coexist
// in L1 while the schedule replays, large enough that per-chunk dispatch
// overhead vanishes. It is a multiple of 64 so chunk boundaries stay
// cache-line aligned. 16 KiB is deliberate: power-of-two unit buffers are
// often mutually congruent modulo large powers of two (16 MiB blocks cut
// into 8 MiB units), so a source and destination chunk can map to the same
// L1 sets; at 16 KiB each stream claims 4 ways of a 12-way 48 KiB L1, so
// two congruent streams still fit, while 32 KiB chunks need 8 ways each
// and thrash — measured as a 2-4x decode swing depending on allocator
// luck.
const chunkBytes = 16 << 10

// minParallelBytes is the buffer size below which RunParallel stays
// serial: striping cost would exceed the work.
const minParallelBytes = 64 << 10

// Compile builds the execution plan for the given matrix. Rows become:
// unit rows a COPY, zero rows a CLEAR, and all remaining rows MUL/MULADD
// ops emitted column-by-column (input-major) so every input unit is
// walked exactly once per execution in ascending order.
func Compile(m *matrix.Matrix) *Plan {
	rows, cols := m.Rows(), m.Cols()
	p := &Plan{numIn: cols, numOut: rows}
	general := make([]bool, rows)
	started := make([]bool, rows)
	nnz := 0
	for r := 0; r < rows; r++ {
		if _, ok := m.UnitColumn(r); ok {
			p.counts.Copy++
		} else if n := m.RowNNZ(r); n == 0 {
			p.counts.Clear++
		} else {
			general[r] = true
			nnz += n
		}
	}
	p.ops = make([]Op, 0, p.counts.Copy+p.counts.Clear+nnz)
	for r := 0; r < rows; r++ {
		if general[r] {
			continue
		}
		if src, ok := m.UnitColumn(r); ok {
			p.ops = append(p.ops, Op{Kind: OpCopy, Dst: int32(r), Src: int32(src)})
		} else {
			p.ops = append(p.ops, Op{Kind: OpClear, Dst: int32(r)})
		}
	}
	// Column-major emission for the general rows: ops are ordered by Src,
	// so a chunk of input c is loaded once and reused by every row that
	// consumes it before the schedule moves on to input c+1.
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if !general[r] {
				continue
			}
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
	return p
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
// workers executors on the shared pool. Each stripe replays the full
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
	stripes := (size + stripe - 1) / stripe
	workpool.Parallel(stripes, workers, func(i int) {
		lo := i * stripe
		hi := lo + stripe
		if hi > size {
			hi = size
		}
		p.runRange(in, out, lo, hi)
	})
	mRunNS.ObserveSince(t0)
}

// runRange replays the schedule over [lo, hi) in cache-sized chunks.
func (p *Plan) runRange(in, out [][]byte, lo, hi int) {
	for clo := lo; clo < hi; clo += chunkBytes {
		chi := clo + chunkBytes
		if chi > hi {
			chi = hi
		}
		for _, op := range p.ops {
			switch op.Kind {
			case OpCopy:
				copy(out[op.Dst][clo:chi], in[op.Src][clo:chi])
			case OpClear:
				clear(out[op.Dst][clo:chi])
			case OpMul:
				gf256.MulSlice(op.Coef, in[op.Src][clo:chi], out[op.Dst][clo:chi])
			case OpMulAdd:
				gf256.MulAddSlice(op.Coef, in[op.Src][clo:chi], out[op.Dst][clo:chi])
			}
		}
	}
}
