package carousel

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// Configurations covering the paper's evaluation: the toy (3,2) example,
// the Hadoop configuration (12,6,10,p) for every evaluated p, microbench
// shapes n=2k with d=k and d=2k-1, and degenerate corners p=k and p=n.
var configs = []struct{ n, k, d, p int }{
	{3, 2, 2, 3},    // Fig. 2/3 toy example
	{4, 2, 2, 4},    // n=2k, d=k
	{4, 2, 3, 4},    // n=2k, d=2k-1
	{6, 3, 3, 6},    // RS base
	{6, 3, 5, 6},    // MSR base
	{8, 4, 7, 8},    // MSR base, k=4
	{12, 6, 10, 6},  // paper Hadoop, p=k
	{12, 6, 10, 8},  // paper Hadoop
	{12, 6, 10, 10}, // paper Hadoop (data access experiment)
	{12, 6, 10, 12}, // paper Hadoop, p=n
	{5, 3, 3, 4},    // p strictly between k and n, RS base
	{9, 6, 6, 8},    // RS base, p < n
	{10, 4, 8, 7},   // MSR base with shortening, odd p
}

func mustCode(t *testing.T, n, k, d, p int) *Code {
	t.Helper()
	c, err := New(n, k, d, p)
	if err != nil {
		t.Fatalf("New(%d,%d,%d,%d): %v", n, k, d, p, err)
	}
	return c
}

func randomShards(rng *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

func flatten(shards [][]byte) []byte {
	var out []byte
	for _, s := range shards {
		out = append(out, s...)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	for _, tt := range []struct{ n, k, d, p int }{
		{3, 0, 1, 2}, // k < 1
		{3, 3, 3, 3}, // n == k
		{6, 3, 3, 2}, // p < k
		{6, 3, 3, 7}, // p > n
		{6, 3, 2, 6}, // d < k
		{6, 3, 6, 6}, // d >= n
		{8, 4, 5, 8}, // k < d < 2k-2 unsupported
	} {
		if _, err := New(tt.n, tt.k, tt.d, tt.p); err == nil {
			t.Errorf("New(%d,%d,%d,%d) did not error", tt.n, tt.k, tt.d, tt.p)
		}
	}
}

func TestPaperToyExampleShape(t *testing.T) {
	// Fig. 2: (3,2) Carousel code with 3 units per block, 2 of them data.
	c := mustCode(t, 3, 2, 2, 3)
	if c.UnitsPerBlock() != 3 {
		t.Fatalf("U = %d, want 3", c.UnitsPerBlock())
	}
	if c.DataUnitsPerBlock() != 2 {
		t.Fatalf("K = %d, want 2", c.DataUnitsPerBlock())
	}
	if !c.Structured() {
		t.Fatal("paper toy example should use the structured selection")
	}
}

func TestHadoopConfigShapes(t *testing.T) {
	// (12,6,10,p): alpha=5, k*alpha=30.
	tests := []struct{ p, wantK, wantP, wantU int }{
		{6, 5, 1, 5},   // 30/6 = 5/1
		{8, 15, 4, 20}, // 30/8 = 15/4
		{10, 3, 1, 5},  // 30/10 = 3/1
		{12, 5, 2, 10}, // 30/12 = 5/2
	}
	for _, tt := range tests {
		c := mustCode(t, 12, 6, 10, tt.p)
		if c.DataUnitsPerBlock() != tt.wantK || c.expand != tt.wantP || c.UnitsPerBlock() != tt.wantU {
			t.Errorf("p=%d: (K,P,U) = (%d,%d,%d), want (%d,%d,%d)", tt.p,
				c.DataUnitsPerBlock(), c.expand, c.UnitsPerBlock(), tt.wantK, tt.wantP, tt.wantU)
		}
		t.Logf("p=%d structured=%v", tt.p, c.Structured())
	}
}

func TestEncodeEmbedsDataSequentially(t *testing.T) {
	for _, cfg := range configs {
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		rng := rand.New(rand.NewSource(1))
		size := c.UnitsPerBlock() * 8
		data := randomShards(rng, cfg.k, size)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		file := flatten(data)
		for i := 0; i < cfg.p; i++ {
			lo, hi := c.DataRange(i, size)
			if hi-lo != c.DataBytesPerBlock(i, size) {
				t.Fatalf("%+v: DataRange and DataBytesPerBlock disagree", cfg)
			}
			if !bytes.Equal(blocks[i][:hi-lo], file[lo:hi]) {
				t.Fatalf("%+v: block %d does not store file range [%d,%d) verbatim", cfg, i, lo, hi)
			}
		}
		// The p ranges must tile the entire file.
		_, last := c.DataRange(cfg.p-1, size)
		if last != len(file) {
			t.Fatalf("%+v: data ranges cover %d of %d bytes", cfg, last, len(file))
		}
		// Non-data-bearing blocks report no data.
		if cfg.p < cfg.n {
			if got := c.DataBytesPerBlock(cfg.p, size); got != 0 {
				t.Fatalf("%+v: block %d reports %d data bytes, want 0", cfg, cfg.p, got)
			}
		}
	}
}

func TestDecodeRandomSubsetsLargeConfigs(t *testing.T) {
	for _, cfg := range configs {
		if cfg.n <= 9 {
			continue
		}
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		rng := rand.New(rand.NewSource(3))
		size := c.UnitsPerBlock() * 2
		data := randomShards(rng, cfg.k, size)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			perm := rng.Perm(cfg.n)[:cfg.k]
			avail := make([][]byte, cfg.n)
			for _, i := range perm {
				avail[i] = blocks[i]
			}
			got, err := c.Decode(avail)
			if err != nil {
				t.Fatalf("%+v subset %v: %v", cfg, perm, err)
			}
			for i := range data {
				if !bytes.Equal(got[i], data[i]) {
					t.Fatalf("%+v subset %v: shard %d mismatch", cfg, perm, i)
				}
			}
		}
	}
}

func TestParallelReadAllAvailable(t *testing.T) {
	for _, cfg := range configs {
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		rng := rand.New(rand.NewSource(4))
		size := c.UnitsPerBlock() * 4
		data := randomShards(rng, cfg.k, size)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ParallelRead(blocks)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !bytes.Equal(got, flatten(data)) {
			t.Fatalf("%+v: parallel read mismatch", cfg)
		}
	}
}

func TestParallelReadWithMissingBlocks(t *testing.T) {
	for _, cfg := range configs {
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		rng := rand.New(rand.NewSource(5))
		size := c.UnitsPerBlock() * 4
		data := randomShards(rng, cfg.k, size)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		file := flatten(data)
		// Drop each single data-bearing block, then pairs where possible.
		var drops [][]int
		for i := 0; i < cfg.p; i++ {
			drops = append(drops, []int{i})
		}
		if cfg.p >= 2 && cfg.n-cfg.k >= 2 {
			drops = append(drops, []int{0, cfg.p - 1})
		}
		for _, drop := range drops {
			avail := make([][]byte, cfg.n)
			copy(avail, blocks)
			for _, i := range drop {
				avail[i] = nil
			}
			got, err := c.ParallelRead(avail)
			if err != nil {
				t.Fatalf("%+v drop %v: %v", cfg, drop, err)
			}
			if !bytes.Equal(got, file) {
				t.Fatalf("%+v drop %v: mismatch", cfg, drop)
			}
		}
	}
}

func TestParallelReadMissingNonDataBlock(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 10)
	rng := rand.New(rand.NewSource(6))
	size := c.UnitsPerBlock() * 4
	data := randomShards(rng, 6, size)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Losing a parity-only block must not disturb the pure-copy path.
	blocks[11] = nil
	got, err := c.ParallelRead(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, flatten(data)) {
		t.Fatal("mismatch with missing non-data block")
	}
}

func TestPlanRead(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 10)
	size := c.UnitsPerBlock() * 10
	usize := size / c.UnitsPerBlock()
	all := make([]bool, 12)
	for i := range all {
		all[i] = true
	}
	plan, err := c.PlanRead(all, size)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Parallelism() != 10 || len(plan.Ranges) != 0 {
		t.Fatalf("full availability: parallelism %d, ranges %v", plan.Parallelism(), plan.Ranges)
	}
	if plan.BytesPerSource != c.DataUnitsPerBlock()*usize {
		t.Fatalf("BytesPerSource = %d", plan.BytesPerSource)
	}
	if plan.TotalBytes != 6*size {
		t.Fatalf("TotalBytes = %d, want %d (the original data)", plan.TotalBytes, 6*size)
	}

	// One data-bearing block missing: replacement keeps parallelism at 10.
	avail := make([]bool, 12)
	copy(avail, all)
	avail[3] = false
	plan, err = c.PlanRead(avail, size)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalBytes != 6*size {
		t.Fatalf("single failure: TotalBytes = %d, want %d", plan.TotalBytes, 6*size)
	}
	if plan.Mode != "replacement" {
		t.Fatalf("single failure: mode %q, want replacement", plan.Mode)
	}
	checkScheme(t, plan, 10)
	if plan.Parallelism() != 10 {
		t.Fatalf("parallelism = %d, want 10", plan.Parallelism())
	}

	// p == n leaves no replacement blocks: the extended parity-unit
	// scheme keeps the read at 1/p granularity.
	cn := mustCode(t, 12, 6, 10, 12)
	sizeN := cn.UnitsPerBlock() * 10
	availN := make([]bool, 12)
	for i := range availN {
		availN[i] = true
	}
	availN[0] = false
	plan, err = cn.PlanRead(availN, sizeN)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != "patch" {
		t.Fatalf("extended plan: mode %q, want patch from parity units", plan.Mode)
	}
	checkScheme(t, plan, 12)
	var patched int
	for _, r := range plan.Ranges {
		patched += r.Len
	}
	if want := cn.DataUnitsPerBlock() * (sizeN / cn.UnitsPerBlock()); patched != want {
		t.Fatalf("patched bytes = %d, want %d (one block's data units)", patched, want)
	}
	if plan.TotalBytes != 6*sizeN {
		t.Fatalf("extended TotalBytes = %d, want %d (the original data)", plan.TotalBytes, 6*sizeN)
	}

	// Too few blocks.
	few := make([]bool, 12)
	few[0] = true
	if _, err := c.PlanRead(few, size); !errors.Is(err, ErrTooFewBlocks) {
		t.Fatalf("err = %v, want ErrTooFewBlocks", err)
	}
}

func TestRepairEveryBlock(t *testing.T) {
	for _, cfg := range configs {
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		rng := rand.New(rand.NewSource(7))
		size := c.UnitsPerBlock() * 4
		if c.Alpha() > 1 && size%(c.Alpha()*c.UnitsPerBlock()) != 0 {
			size = c.Alpha() * c.UnitsPerBlock() * 4
		}
		data := randomShards(rng, cfg.k, size)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for failed := 0; failed < cfg.n; failed++ {
			helpers := make([]int, 0, cfg.d)
			for i := 0; i < cfg.n && len(helpers) < cfg.d; i++ {
				if i != failed {
					helpers = append(helpers, i)
				}
			}
			got, err := c.Repair(failed, helpers, blocks)
			if err != nil {
				t.Fatalf("%+v repair %d: %v", cfg, failed, err)
			}
			if !bytes.Equal(got, blocks[failed]) {
				t.Fatalf("%+v repair %d: mismatch", cfg, failed)
			}
		}
	}
}

func TestRepairTrafficOptimal(t *testing.T) {
	// (12,6,10,12): alpha=5; traffic = 10/5 = 2 blocks vs 6 for RS base.
	c := mustCode(t, 12, 6, 10, 12)
	blockSize := c.UnitsPerBlock() * c.Alpha() * 10
	if got, want := c.ReconstructionTraffic(blockSize), 2*blockSize; got != want {
		t.Fatalf("MSR-base traffic = %d, want %d", got, want)
	}
	if got, want := c.HelperChunkSize(blockSize), blockSize/5; got != want {
		t.Fatalf("chunk size = %d, want %d", got, want)
	}
	// RS base: traffic = k blocks.
	c2 := mustCode(t, 12, 6, 6, 12)
	if got, want := c2.ReconstructionTraffic(blockSize), 6*blockSize; got != want {
		t.Fatalf("RS-base traffic = %d, want %d", got, want)
	}
}

func TestRepairChunkLevelAPI(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 12)
	rng := rand.New(rand.NewSource(8))
	size := c.UnitsPerBlock() * 4
	data := randomShards(rng, 6, size)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	failed := 7
	helpers := []int{0, 1, 2, 3, 4, 5, 6, 8, 9, 10}
	chunks := make([][]byte, len(helpers))
	for i, h := range helpers {
		ch, err := c.HelperChunk(h, failed, blocks[h])
		if err != nil {
			t.Fatal(err)
		}
		if len(ch) != c.HelperChunkSize(size) {
			t.Fatalf("chunk size %d, want %d", len(ch), c.HelperChunkSize(size))
		}
		chunks[i] = ch
	}
	got, err := c.RepairBlock(failed, helpers, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blocks[failed]) {
		t.Fatal("chunk-level repair mismatch")
	}
}

func TestRepairValidation(t *testing.T) {
	c := mustCode(t, 6, 3, 5, 6)
	size := c.UnitsPerBlock() * c.Alpha()
	blocks := make([][]byte, 6)
	for i := range blocks {
		blocks[i] = make([]byte, size)
	}
	cases := []struct {
		name    string
		failed  int
		helpers []int
	}{
		{"failed out of range", 6, []int{0, 1, 2, 3, 4}},
		{"wrong helper count", 0, []int{1, 2, 3}},
		{"helper equals failed", 0, []int{0, 1, 2, 3, 4}},
		{"duplicate helper", 0, []int{1, 1, 2, 3, 4}},
		{"helper out of range", 0, []int{1, 2, 3, 4, 9}},
	}
	for _, tc := range cases {
		if _, err := c.Repair(tc.failed, tc.helpers, blocks); !errors.Is(err, ErrBadHelpers) {
			t.Errorf("%s: err = %v, want ErrBadHelpers", tc.name, err)
		}
	}
}

func TestGeneratorSparsity(t *testing.T) {
	// The paper's encoding optimization (Fig. 5): every parity-unit row of
	// the remapped generator is a combination of at most k*alpha chosen
	// units (k for an RS base), despite the matrix being U times larger.
	for _, cfg := range configs {
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		g := c.GeneratorMatrix()
		bound := cfg.k * c.Alpha()
		for r := 0; r < g.Rows(); r++ {
			if got := g.RowNNZ(r); got > bound {
				t.Fatalf("%+v: row %d has %d nonzeros, bound %d", cfg, r, got, bound)
			}
		}
	}
}

func TestFig5MatrixShapes(t *testing.T) {
	// (3,2) RS: 3x2. (3,2,2,3) Carousel: 9x6, sparse.
	c := mustCode(t, 3, 2, 2, 3)
	g := c.GeneratorMatrix()
	if g.Rows() != 9 || g.Cols() != 6 {
		t.Fatalf("Carousel generator %dx%d, want 9x6", g.Rows(), g.Cols())
	}
	dataRows := 0
	for r := 0; r < 9; r++ {
		if _, ok := g.UnitColumn(r); ok {
			dataRows++
		} else if nnz := g.RowNNZ(r); nnz > 2 {
			t.Fatalf("parity row %d has %d nonzeros, want <= 2 (k=2)", r, nnz)
		}
	}
	if dataRows != 6 {
		t.Fatalf("%d data rows, want 6", dataRows)
	}
}

// Property: random availability with at least k survivors always allows
// ParallelRead to return the original data.
func TestParallelReadProperty(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 10)
	size := c.UnitsPerBlock() * 2
	f := func(seed int64, mask uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randomShards(rng, 6, size)
		blocks, err := c.Encode(data)
		if err != nil {
			return false
		}
		avail := make([][]byte, 12)
		count := 0
		for i := 0; i < 12; i++ {
			if mask&(1<<i) != 0 {
				avail[i] = blocks[i]
				count++
			}
		}
		got, err := c.ParallelRead(avail)
		if count < 6 {
			return errors.Is(err, ErrTooFewBlocks)
		}
		if err != nil {
			return false
		}
		return bytes.Equal(got, flatten(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAccessors(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 8)
	if c.N() != 12 || c.K() != 6 || c.D() != 10 || c.P() != 8 {
		t.Fatalf("accessors: (%d,%d,%d,%d)", c.N(), c.K(), c.D(), c.P())
	}
	if c.BlockAlign() != c.UnitsPerBlock() {
		t.Fatal("BlockAlign should equal UnitsPerBlock")
	}
	if lo, hi := c.DataRange(-1, 20); lo != 0 || hi != 0 {
		t.Fatal("negative index DataRange should be empty")
	}
}
