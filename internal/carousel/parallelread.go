package carousel

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"carousel/internal/codeplan"
	"carousel/internal/lincode"
	"carousel/internal/matrix"
	"carousel/internal/workpool"
)

// ReadPlan describes how a full-file read will be served (Section VII of
// the paper). When all p data-bearing blocks are available the read is pure
// parallel copy. When q < p of them are available, each missing one is
// replaced by a block holding no original data, from which the mirrored
// unit selection is fetched and a small system is solved. When no spare
// blocks exist (e.g. p = n), the planner extends the paper's scheme —
// its stated future work — by gathering the missing data units from parity
// units of any available blocks, still touching only 1/p of the data per
// missing block. Because the code is MDS, any k available blocks carry
// enough independent units, so every plan moves exactly k*blockSize bytes.
//
// The plan's fetch list is the Direct prefixes plus the Ranges: fetch the
// data prefix (BytesPerSource bytes at offset 0) of every Direct block
// into its DataRange of the output, fetch Ranges, and Solve fills in the
// rest. That is the whole read for every case above, so the live store
// over sockets, the simulator charging its links and ReadInto over
// in-memory blocks move the same bytes and run the same solve.
//
// PlanRead memoizes its plans, so a plan is shared by every caller that
// planned the same availability and block size: it is read-only, and must
// not be modified.
type ReadPlan struct {
	// Direct lists the available data-bearing blocks whose data prefix is
	// read verbatim, in ascending order.
	Direct []int
	// BytesPerSource is the length of every Direct prefix (K units).
	BytesPerSource int
	// TotalBytes is the total number of bytes fetched from remote blocks:
	// always k*blockSize.
	TotalBytes int
	// Ranges lists what the plan fetches beyond the Direct prefixes:
	// the replacement blocks' mirrored units or the patch units, adjacent
	// units of one block coalesced into one range and ordered by block
	// and offset. Empty when every data-bearing block is Direct.
	Ranges []ReadRange
	// Mode names the plan's scheme: "parallel" when every data-bearing
	// block is Direct, "replacement" when each missing one's units come
	// from one data-free block (the paper's Section VII scheme), "patch"
	// when they come from parity units of any available blocks.
	Mode string

	code      *Code
	blockSize int
	solver    *readSolver // nil for healthy plans
}

// ReadRange is a contiguous byte range of one stored block.
type ReadRange struct {
	Block, Off, Len int
}

// Solve completes the read in out (k*blockSize bytes), which must already
// hold the Direct blocks' data prefixes at their DataRange: fetched[i]
// holds the bytes of Ranges[i], which Solve only reads. It allocates
// nothing in proportion to the block size.
func (rp *ReadPlan) Solve(fetched [][]byte, out []byte) error {
	c := rp.code
	if len(out) != c.k*rp.blockSize {
		return fmt.Errorf("carousel: output buffer holds %d bytes, want %d", len(out), c.k*rp.blockSize)
	}
	if len(fetched) != len(rp.Ranges) {
		return fmt.Errorf("%w: %d fetched ranges, the plan has %d", ErrBlockCount, len(fetched), len(rp.Ranges))
	}
	for i, r := range rp.Ranges {
		if len(fetched[i]) != r.Len {
			return fmt.Errorf("%w: range %d of block %d holds %d bytes, want %d", ErrBlockSizeMismatch, i, r.Block, len(fetched[i]), r.Len)
		}
	}
	if rp.solver != nil {
		rp.solver.solve(fetched, out, rp.blockSize/c.units)
	}
	return nil
}

// Parallelism returns the number of sources read concurrently: the Direct
// blocks plus the distinct blocks of Ranges that are not Direct, counted by
// one merge walk (both are ordered by block).
func (rp *ReadPlan) Parallelism() int {
	n, d, last := len(rp.Direct), 0, -1
	for _, r := range rp.Ranges {
		for d < len(rp.Direct) && rp.Direct[d] < r.Block {
			d++
		}
		if r.Block != last && (d == len(rp.Direct) || rp.Direct[d] != r.Block) {
			n++
		}
		last = r.Block
	}
	return n
}

// PlanRead returns the read plan for the given availability vector
// (length n) and block size. The live store fetches its fetch list, the
// simulator charges and then runs it, and ReadInto executes it in memory.
// With at least k blocks available there is always a plan, and it moves
// exactly k*blockSize bytes; with fewer the error is ErrTooFewBlocks.
//
// Plans are memoized per (availability, block size): the first call for a
// pair builds the plan and its solver, and every later one returns the
// same plan, allocating nothing. A plan is shared and read-only; callers
// must not modify it. A call that fails is not memoized.
func (c *Code) PlanRead(available []bool, blockSize int) (*ReadPlan, error) {
	if len(available) != c.n {
		return nil, fmt.Errorf("%w: availability vector has %d entries, want %d", ErrBlockCount, len(available), c.n)
	}
	if err := lincode.CheckSize(blockSize, c.units); err != nil {
		return nil, err
	}
	// The key: the availability bits (at most 32 bytes: n <= 256), then
	// the block size.
	var buf [48]byte
	key, bits, have := buf[:0], byte(0), 0
	for i, ok := range available {
		if ok {
			have++
			bits |= 1 << (i % 8)
		}
		if i%8 == 7 || i == c.n-1 {
			key, bits = append(key, bits), 0
		}
	}
	if have < c.k {
		return nil, fmt.Errorf("%w: %d available, need %d", ErrTooFewBlocks, have, c.k)
	}
	key = binary.BigEndian.AppendUint64(key, uint64(blockSize))
	return c.readPlans.Get(key, func() (*ReadPlan, error) {
		return c.buildReadPlan(available, blockSize)
	})
}

// buildReadPlan builds the plan PlanRead memoizes: every available
// data-bearing block Direct, and for the missing ones, if any, their
// solver and the ranges it reads.
func (c *Code) buildReadPlan(available []bool, blockSize int) (*ReadPlan, error) {
	usize := blockSize / c.units
	plan := &ReadPlan{Mode: "parallel", Direct: make([]int, 0, c.p), BytesPerSource: c.kUnits * usize, TotalBytes: c.k * blockSize, code: c, blockSize: blockSize}
	var missing []int
	for i, ok := range available[:c.p] {
		if ok {
			plan.Direct = append(plan.Direct, i)
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return plan, nil
	}
	solver, err := c.buildDegradedSolver(missing, available)
	if err != nil {
		return nil, err
	}
	plan.solver, plan.Mode = solver, "patch"
	if solver.spares != nil {
		plan.Mode = "replacement"
	}
	plan.Ranges = make([]ReadRange, len(solver.ranges))
	for i, r := range solver.ranges {
		plan.Ranges[i] = ReadRange{Block: r.block, Off: r.pos * usize, Len: r.n * usize}
	}
	return plan, nil
}

// ParallelRead reassembles the original data (k*blockSize bytes) from the
// available blocks, reading original data in parallel from every available
// data-bearing block and solving only for the missing ranges, per Section
// VII (plus the parity-unit extension when no spare blocks exist). blocks
// must have length n with nil entries for unavailable blocks.
func (c *Code) ParallelRead(blocks [][]byte) ([]byte, error) {
	_, size, err := lincode.Survey(blocks, c.n, c.units, true)
	if err != nil {
		return nil, err
	}
	out := make([]byte, c.k*size)
	if err := c.ParallelReadInto(blocks, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelReadInto is ParallelRead writing into a caller-provided buffer
// of exactly k*blockSize bytes: it plans the read for the blocks present
// and executes the plan over them (ReadInto).
func (c *Code) ParallelReadInto(blocks [][]byte, out []byte) error {
	present, size, err := lincode.Survey(blocks, c.n, c.units, true)
	if err != nil {
		return err
	}
	available := make([]bool, c.n)
	for _, i := range present {
		available[i] = true
	}
	plan, err := c.PlanRead(available, size)
	if err != nil {
		return err
	}
	return plan.ReadInto(blocks, out)
}

// ReadInto executes the plan over in-memory blocks into out (k*blockSize
// bytes). blocks has length n; every block the plan reads must hold
// blockSize bytes, the others are not touched and may be nil. Every byte
// of out is overwritten (direct prefixes are copied, solved ranges start
// with a full-overwrite op), so a reused or pooled buffer needs no
// clearing, and the blocks are only read.
func (rp *ReadPlan) ReadInto(blocks [][]byte, out []byte) error {
	c := rp.code
	if len(blocks) != c.n {
		return fmt.Errorf("%w: %d blocks, want %d", ErrBlockCount, len(blocks), c.n)
	}
	if len(out) != c.k*rp.blockSize {
		return fmt.Errorf("carousel: output buffer holds %d bytes, want %d", len(out), c.k*rp.blockSize)
	}
	short := func(b int) error {
		return fmt.Errorf("%w: block %d holds %d bytes, the plan reads %d", ErrBlockSizeMismatch, b, len(blocks[b]), rp.blockSize)
	}
	for _, i := range rp.Direct {
		if len(blocks[i]) != rp.blockSize {
			return short(i)
		}
	}
	for _, r := range rp.Ranges {
		if len(blocks[r.Block]) != rp.blockSize {
			return short(r.Block)
		}
	}
	per := rp.BytesPerSource
	for _, i := range rp.Direct {
		copy(out[i*per:(i+1)*per], blocks[i][:per])
	}
	if len(rp.Ranges) == 0 {
		return nil
	}
	fetched := make([][]byte, len(rp.Ranges))
	for i, r := range rp.Ranges {
		fetched[i] = blocks[r.Block][r.Off : r.Off+r.Len : r.Off+r.Len]
	}
	return rp.Solve(fetched, out)
}

// readSolver solves for the data units of missing data-bearing blocks from
// a gathered set of unit equations. The gathered units v satisfy
// A·x = v + K·y, where x are the missing data units and y the data units
// already in the output, so x = [A⁻¹ | A⁻¹K]·[v; y]: one compiled map.
type readSolver struct {
	spares  []int // replacement blocks (nil for the extended scheme)
	rows    []readRow
	ranges  []unitRange    // what the rows read, coalesced; ordered by block, then position
	plan    *codeplan.Plan // [A⁻¹ | A⁻¹K]: the gathered units, then the known ones, to the unknown ones
	unknown []int          // global data-unit columns being solved for (x)
	known   []int          // global data-unit columns some gathered row uses (y)

	tables sync.Pool // *solveTables, so a solve allocates no unit tables
}

// unitRange is a run of n adjacent stored units of one block, starting at
// stored position pos.
type unitRange struct {
	block, pos, n int
}

// solveTables are the unit views one solve hands its compiled plan: the
// gathered and the known units, and the unknown ranges of the output.
type solveTables struct {
	in, dst [][]byte
}

// readRow is one gathered equation: a source block's unit and where the
// fetched ranges hold it.
type readRow struct {
	block int // source block
	unit  int // canonical unit within the block
	rng   int // the entry of readSolver.ranges holding the unit ...
	off   int // ... and its position within that range, in units
}

// buildDegradedSolver builds the solver for the given missing
// data-bearing blocks: the paper's replacement-block scheme when spare
// blocks without data exist, the parity-unit extension otherwise.
func (c *Code) buildDegradedSolver(missing []int, available []bool) (*readSolver, error) {
	unknown := make([]int, 0, len(missing)*c.kUnits)
	for _, m := range missing {
		for j := 0; j < c.kUnits; j++ {
			unknown = append(unknown, m*c.kUnits+j)
		}
	}

	// Section VII scheme: one spare (data-free) block per missing block,
	// offering the missing block's unit pattern.
	var spares []int
	for i := c.p; i < c.n && len(spares) < len(missing); i++ {
		if available[i] {
			spares = append(spares, i)
		}
	}
	if len(spares) == len(missing) {
		var eqs [][2]int
		for mi, m := range missing {
			for _, u := range c.chosen[m] {
				eqs = append(eqs, [2]int{spares[mi], u})
			}
		}
		if s, err := c.solverFromEquations(missing, spares, unknown, eqs); err == nil {
			return s, nil
		}
	}

	// Extension: gather rank from parity units of any available block,
	// round-robin so the extra load spreads evenly.
	tracker := matrix.NewRankTracker(len(unknown))
	var eqs [][2]int
	restricted := make([]byte, len(unknown))
	for round := 0; round < c.units && len(eqs) < len(unknown); round++ {
		for b := 0; b < c.n && len(eqs) < len(unknown); b++ {
			if !available[b] {
				continue
			}
			// The round-th non-data stored position of block b.
			dataCount := 0
			if b < c.p {
				dataCount = c.kUnits
			}
			pos := dataCount + round
			if pos >= c.units {
				continue
			}
			u := c.toCanon[b][pos]
			row := c.gen.Row(b*c.units + u)
			for x, col := range unknown {
				restricted[x] = row[col]
			}
			if tracker.Add(restricted) {
				eqs = append(eqs, [2]int{b, u})
			}
		}
	}
	if len(eqs) < len(unknown) {
		return nil, fmt.Errorf("carousel: cannot gather %d independent parity units for missing %v", len(unknown), missing)
	}
	return c.solverFromEquations(missing, nil, unknown, eqs)
}

// solverFromEquations assembles the system for the given (block, canonical
// unit) equations, splits each generator row into its unknown columns (A)
// and the known columns it uses (K), and compiles [A⁻¹ | A⁻¹K].
func (c *Code) solverFromEquations(missing, spares, unknown []int, eqs [][2]int) (*readSolver, error) {
	used := make([]bool, c.gen.Cols()) // the known columns some gathered row uses
	rows := make([]readRow, len(eqs))
	for i, eq := range eqs {
		rows[i] = readRow{block: eq[0], unit: eq[1]}
		for col, coef := range c.gen.Row(eq[0]*c.units + eq[1]) {
			used[col] = used[col] || coef != 0
		}
	}
	for _, col := range unknown {
		used[col] = false
	}
	var known []int
	for col, ok := range used {
		if ok {
			known = append(known, col)
		}
	}
	a, kn := matrix.New(len(eqs), len(unknown)), matrix.New(len(eqs), len(known))
	for i, rr := range rows {
		genRow := c.gen.Row(rr.block*c.units + rr.unit)
		for x, col := range unknown {
			a.Set(i, x, genRow[col])
		}
		for y, col := range known {
			kn.Set(i, y, genRow[col])
		}
	}
	inv, err := a.Inverse()
	if err != nil {
		return nil, fmt.Errorf("carousel: degraded-read system for missing %v: %w", missing, err)
	}
	// Coalesce what the rows read into ranges: walk the rows by block and
	// stored position, extending the last range while units stay adjacent.
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	stored := func(i int) int { return c.toStored[rows[i].block][rows[i].unit] }
	sort.Slice(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if rows[i].block != rows[j].block {
			return rows[i].block < rows[j].block
		}
		return stored(i) < stored(j)
	})
	var ranges []unitRange
	for _, i := range order {
		b, pos := rows[i].block, stored(i)
		if n := len(ranges); n == 0 || ranges[n-1].block != b || ranges[n-1].pos+ranges[n-1].n != pos {
			ranges = append(ranges, unitRange{block: b, pos: pos})
		}
		last := &ranges[len(ranges)-1]
		rows[i].rng, rows[i].off = len(ranges)-1, last.n
		last.n++
	}
	plan := codeplan.Compile(inv.HStack(inv.Mul(kn)))
	return &readSolver{spares: spares, rows: rows, ranges: ranges, plan: plan, unknown: unknown, known: known}, nil
}

// solve fills the unknown data units of out in one run of the compiled
// map, whose inputs are the gathered units of fetched, which it only
// reads, followed by the known data units of out.
func (s *readSolver) solve(fetched [][]byte, out []byte, usize int) {
	t, _ := s.tables.Get().(*solveTables)
	if t == nil {
		t = &solveTables{in: make([][]byte, len(s.rows)+len(s.known)), dst: make([][]byte, len(s.unknown))}
	}
	for i, rr := range s.rows {
		t.in[i] = fetched[rr.rng][rr.off*usize : (rr.off+1)*usize : (rr.off+1)*usize]
	}
	for i, col := range s.known {
		t.in[len(s.rows)+i] = out[col*usize : (col+1)*usize : (col+1)*usize]
	}
	for i, col := range s.unknown {
		t.dst[i] = out[col*usize : (col+1)*usize : (col+1)*usize]
	}
	s.plan.RunParallel(t.in, t.dst, workpool.Width())
	clear(t.in) // a parked table must not pin the caller's buffers
	clear(t.dst)
	s.tables.Put(t)
}
