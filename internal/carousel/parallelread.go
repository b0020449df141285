package carousel

import (
	"fmt"

	"carousel/internal/codeplan"
	"carousel/internal/gf256"
	"carousel/internal/lincode"
	"carousel/internal/matrix"
)

// ReadPlan describes how a full-file read will be served (Section VII of
// the paper). When all p data-bearing blocks are available the read is pure
// parallel copy. When q < p of them are available, each missing one is
// replaced by a block holding no original data, from which the mirrored
// unit selection is fetched and a small system is solved. When no spare
// blocks exist (e.g. p = n), the planner extends the paper's scheme —
// its stated future work — by gathering the missing data units from parity
// units of any available blocks, still touching only 1/p of the data per
// missing block. A classic any-k decode is the last resort.
type ReadPlan struct {
	// Direct lists the available data-bearing blocks whose data prefix is
	// read verbatim.
	Direct []int
	// Replacements maps each missing data-bearing block to the
	// replacement block serving its unit pattern (the paper's Section VII
	// scheme).
	Replacements map[int]int
	// Patch maps block index -> extra bytes fetched beyond the data
	// prefix when the extended parity-unit scheme is used.
	Patch map[int]int
	// FallbackBlocks is non-nil when the read degrades to an any-k decode;
	// it lists the k blocks that will be read in full.
	FallbackBlocks []int
	// BytesPerSource is the number of bytes fetched from every direct or
	// replacement source (K units). For fallback plans it is the block
	// size.
	BytesPerSource int
	// TotalBytes is the total number of bytes fetched from remote blocks.
	TotalBytes int
}

// Parallelism returns the number of sources read concurrently.
func (rp *ReadPlan) Parallelism() int {
	if rp.FallbackBlocks != nil {
		return len(rp.FallbackBlocks)
	}
	sources := make(map[int]bool, len(rp.Direct)+len(rp.Replacements)+len(rp.Patch))
	for _, b := range rp.Direct {
		sources[b] = true
	}
	for _, b := range rp.Replacements {
		sources[b] = true
	}
	for b := range rp.Patch {
		sources[b] = true
	}
	return len(sources)
}

// PlanRead computes the read plan for the given availability vector
// (length n) and block size. The plan is what the DFS layer uses for
// traffic accounting; ParallelRead executes the same logic.
func (c *Code) PlanRead(available []bool, blockSize int) (*ReadPlan, error) {
	if len(available) != c.n {
		return nil, fmt.Errorf("%w: availability vector has %d entries, want %d", ErrBlockCount, len(available), c.n)
	}
	if err := lincode.CheckSize(blockSize, c.units); err != nil {
		return nil, err
	}
	usize := blockSize / c.units
	plan := &ReadPlan{BytesPerSource: c.kUnits * usize}
	var missing []int
	for i := 0; i < c.p; i++ {
		if available[i] {
			plan.Direct = append(plan.Direct, i)
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		plan.TotalBytes = c.p * plan.BytesPerSource
		return plan, nil
	}
	solver, err := c.degradedSolver(missing, available)
	if err == nil {
		if solver.spares != nil {
			plan.Replacements = make(map[int]int, len(missing))
			for i, m := range missing {
				plan.Replacements[m] = solver.spares[i]
			}
		} else {
			plan.Patch = make(map[int]int)
			for _, rr := range solver.rows {
				plan.Patch[rr.block] += usize
			}
		}
		plan.TotalBytes = c.p * plan.BytesPerSource
		return plan, nil
	}
	// Fallback: any k full blocks.
	var avail []int
	for i, ok := range available {
		if ok {
			avail = append(avail, i)
		}
	}
	if len(avail) < c.k {
		return nil, fmt.Errorf("%w: %d available, need %d", ErrTooFewBlocks, len(avail), c.k)
	}
	plan.Direct = nil
	plan.BytesPerSource = blockSize
	plan.FallbackBlocks = avail[:c.k]
	plan.TotalBytes = c.k * blockSize
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
// of exactly k*blockSize bytes. Every byte of out is overwritten (direct
// prefixes are copied, solved ranges start with a full-overwrite op, the
// any-k fallback copies whole shards), so a reused or pooled buffer needs
// no clearing — this is what keeps the pipelined store's steady-state
// decode allocation-free.
func (c *Code) ParallelReadInto(blocks [][]byte, out []byte) error {
	present, size, err := lincode.Survey(blocks, c.n, c.units, true)
	if err != nil {
		return err
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: %d present, need %d", ErrTooFewBlocks, len(present), c.k)
	}
	if len(out) != c.k*size {
		return fmt.Errorf("carousel: output buffer holds %d bytes, want %d", len(out), c.k*size)
	}
	usize := size / c.units
	per := c.kUnits * usize

	available := make([]bool, c.n)
	for _, i := range present {
		available[i] = true
	}
	var missing []int
	for i := 0; i < c.p; i++ {
		if blocks[i] == nil {
			missing = append(missing, i)
		}
	}
	// Copy the data prefixes of all available data-bearing blocks.
	for i := 0; i < c.p; i++ {
		if blocks[i] != nil {
			copy(out[i*per:(i+1)*per], blocks[i][:per])
		}
	}
	if len(missing) == 0 {
		return nil
	}

	if solver, err := c.degradedSolver(missing, available); err == nil {
		solver.solve(c, blocks, out, usize)
		return nil
	}

	// Fallback: full decode from any k blocks.
	data, err := c.Decode(blocks)
	if err != nil {
		return err
	}
	for i, shard := range data {
		copy(out[i*size:(i+1)*size], shard)
	}
	return nil
}

// readSolver solves for the data units of missing data-bearing blocks from
// a gathered set of unit equations.
type readSolver struct {
	missing []int
	spares  []int // replacement blocks (nil for the extended scheme)
	rows    []readRow
	plan    *codeplan.Plan // compiled inverse over the unknown columns
	unknown []int          // global data-unit columns being solved for
}

// readRow is one gathered equation: the generator row of a source block's
// unit, split into its unknown-column coefficients (handled by inv) and
// its known-column terms (subtracted into the right-hand side).
type readRow struct {
	block int // source block
	unit  int // canonical unit within the block
	known []colCoef
}

type colCoef struct {
	col  int // global data unit index
	coef byte
}

// degradedSolver returns the memoized solver for the given missing
// data-bearing blocks: the paper's replacement-block scheme when spare
// blocks without data exist, the parity-unit extension otherwise. A pattern
// with no solver is not remembered; its reads take the any-k fallback.
func (c *Code) degradedSolver(missing []int, available []bool) (*readSolver, error) {
	key := lincode.AppendIndices(make([]byte, 0, len(missing)+1+(c.n+7)/8), missing)
	key = append(key, 0xff)
	var bits byte
	for i := 0; i < c.n; i++ {
		if available[i] {
			bits |= 1 << (i % 8)
		}
		if i%8 == 7 || i == c.n-1 {
			key = append(key, bits)
			bits = 0
		}
	}
	return c.readSolvers.Get(key, func() (*readSolver, error) {
		return c.buildDegradedSolver(missing, available)
	})
}

func (c *Code) buildDegradedSolver(missing []int, available []bool) (*readSolver, error) {
	unknown := make([]int, 0, len(missing)*c.kUnits)
	unknownAt := make(map[int]int, len(missing)*c.kUnits)
	for _, m := range missing {
		for j := 0; j < c.kUnits; j++ {
			unknownAt[m*c.kUnits+j] = len(unknown)
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
		if s, err := c.solverFromEquations(missing, spares, unknown, unknownAt, eqs); err == nil {
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
	return c.solverFromEquations(missing, nil, unknown, unknownAt, eqs)
}

// solverFromEquations assembles and inverts the system for the given
// (block, canonical unit) equations.
func (c *Code) solverFromEquations(missing, spares []int, unknown []int, unknownAt map[int]int, eqs [][2]int) (*readSolver, error) {
	a := matrix.New(len(unknown), len(unknown))
	rows := make([]readRow, 0, len(eqs))
	for _, eq := range eqs {
		b, u := eq[0], eq[1]
		genRow := c.gen.Row(b*c.units + u)
		rr := readRow{block: b, unit: u}
		arow := a.Row(len(rows))
		for col, coef := range genRow {
			if coef == 0 {
				continue
			}
			if x, ok := unknownAt[col]; ok {
				arow[x] = coef
			} else {
				rr.known = append(rr.known, colCoef{col: col, coef: coef})
			}
		}
		rows = append(rows, rr)
	}
	inv, err := a.Inverse()
	if err != nil {
		return nil, fmt.Errorf("carousel: degraded-read system for missing %v: %w", missing, err)
	}
	return &readSolver{missing: missing, spares: spares, rows: rows, plan: codeplan.Compile(inv), unknown: unknown}, nil
}

// solve fills the unknown data ranges of out. The known data prefixes must
// already be copied into out.
func (s *readSolver) solve(c *Code, blocks [][]byte, out []byte, usize int) {
	// Right-hand side: the source units minus their known-column
	// contributions (which are data units already present in out).
	rhs := make([][]byte, len(s.rows))
	for i, rr := range s.rows {
		pos := c.toStored[rr.block][rr.unit]
		val := make([]byte, usize)
		copy(val, blocks[rr.block][pos*usize:(pos+1)*usize])
		for _, kc := range rr.known {
			gf256.MulAddSlice(kc.coef, out[kc.col*usize:(kc.col+1)*usize], val)
		}
		rhs[i] = val
	}
	dst := make([][]byte, len(s.unknown))
	for i, col := range s.unknown {
		dst[i] = out[col*usize : (col+1)*usize : (col+1)*usize]
	}
	s.plan.RunParallel(rhs, dst, c.workers)
}
