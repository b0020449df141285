package msr

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCode(t *testing.T, n, k, d int) *Code {
	t.Helper()
	c, err := New(n, k, d)
	if err != nil {
		t.Fatalf("New(%d, %d, %d): %v", n, k, d, err)
	}
	return c
}

func randomData(rng *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

// Configurations exercised throughout: native d=2k-2, the paper's d=2k-1
// (shortened by 1), and deeper shortening.
var configs = []struct{ n, k, d int }{
	{4, 2, 2},   // d = 2k-2, alpha 1
	{4, 2, 3},   // d = 2k-1, alpha 2 (paper microbench shape, k=2)
	{6, 3, 4},   // d = 2k-2, alpha 2
	{6, 3, 5},   // d = 2k-1, alpha 3
	{8, 4, 7},   // d = 2k-1, alpha 4
	{12, 6, 10}, // the paper's Hadoop configuration, d = 2k-2, alpha 5
	{12, 6, 11}, // deeper d
	{10, 4, 8},  // shortening i = 2
}

func TestNewValidation(t *testing.T) {
	for _, tt := range []struct{ n, k, d int }{
		{4, 1, 2},    // k too small
		{4, 4, 4},    // n == k
		{6, 3, 3},    // d < 2k-2
		{6, 3, 6},    // d >= n
		{6, 3, 2},    // d < k
		{32, 16, 30}, // alpha=15 has only 17 distinct powers in GF(256)
	} {
		if _, err := New(tt.n, tt.k, tt.d); err == nil {
			t.Errorf("New(%d, %d, %d) did not error", tt.n, tt.k, tt.d)
		}
	}
}

func TestParams(t *testing.T) {
	c := mustCode(t, 12, 6, 10)
	if c.N() != 12 || c.K() != 6 || c.D() != 10 || c.Alpha() != 5 {
		t.Fatalf("params = (%d,%d,%d) alpha %d", c.N(), c.K(), c.D(), c.Alpha())
	}
	g := c.EffectiveGenerator()
	if g.Rows() != 60 || g.Cols() != 30 {
		t.Fatalf("generator shape %dx%d, want 60x30", g.Rows(), g.Cols())
	}
}

func TestEncodeSystematic(t *testing.T) {
	for _, cfg := range configs {
		c := mustCode(t, cfg.n, cfg.k, cfg.d)
		rng := rand.New(rand.NewSource(1))
		size := c.Alpha() * 16
		data := randomData(rng, cfg.k, size)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatalf("(%d,%d,%d): %v", cfg.n, cfg.k, cfg.d, err)
		}
		for i := 0; i < cfg.k; i++ {
			if !bytes.Equal(blocks[i], data[i]) {
				t.Fatalf("(%d,%d,%d): data block %d not systematic", cfg.n, cfg.k, cfg.d, i)
			}
		}
	}
}

func TestDecodeRandomSubsetsLargeConfigs(t *testing.T) {
	for _, cfg := range configs {
		if cfg.n <= 8 {
			continue
		}
		c := mustCode(t, cfg.n, cfg.k, cfg.d)
		rng := rand.New(rand.NewSource(3))
		data := randomData(rng, cfg.k, c.Alpha()*4)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			perm := rng.Perm(cfg.n)[:cfg.k]
			avail := make([][]byte, cfg.n)
			for _, i := range perm {
				avail[i] = blocks[i]
			}
			got, err := c.Decode(avail)
			if err != nil {
				t.Fatalf("(%d,%d,%d) subset %v: %v", cfg.n, cfg.k, cfg.d, perm, err)
			}
			for i := range data {
				if !bytes.Equal(got[i], data[i]) {
					t.Fatalf("(%d,%d,%d) subset %v: block %d mismatch", cfg.n, cfg.k, cfg.d, perm, i)
				}
			}
		}
	}
}

func TestRepairEveryBlock(t *testing.T) {
	for _, cfg := range configs {
		c := mustCode(t, cfg.n, cfg.k, cfg.d)
		rng := rand.New(rand.NewSource(4))
		data := randomData(rng, cfg.k, c.Alpha()*8)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for failed := 0; failed < cfg.n; failed++ {
			// Default helper set: the first d other blocks.
			helpers := make([]int, 0, cfg.d)
			for i := 0; i < cfg.n && len(helpers) < cfg.d; i++ {
				if i != failed {
					helpers = append(helpers, i)
				}
			}
			got, err := c.Repair(failed, helpers, blocks)
			if err != nil {
				t.Fatalf("(%d,%d,%d) repair %d: %v", cfg.n, cfg.k, cfg.d, failed, err)
			}
			if !bytes.Equal(got, blocks[failed]) {
				t.Fatalf("(%d,%d,%d) repair %d: block mismatch", cfg.n, cfg.k, cfg.d, failed)
			}
		}
	}
}

func TestRepairRandomHelperSets(t *testing.T) {
	c := mustCode(t, 12, 6, 10)
	rng := rand.New(rand.NewSource(5))
	data := randomData(rng, 6, c.Alpha()*4)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		failed := rng.Intn(12)
		var pool []int
		for i := 0; i < 12; i++ {
			if i != failed {
				pool = append(pool, i)
			}
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		helpers := pool[:10]
		got, err := c.Repair(failed, helpers, blocks)
		if err != nil {
			t.Fatalf("failed=%d helpers=%v: %v", failed, helpers, err)
		}
		if !bytes.Equal(got, blocks[failed]) {
			t.Fatalf("failed=%d helpers=%v: mismatch", failed, helpers)
		}
	}
}

func TestHelperChunkSize(t *testing.T) {
	c := mustCode(t, 6, 3, 5) // alpha = 3
	rng := rand.New(rand.NewSource(6))
	data := randomData(rng, 3, 30)
	blocks, _ := c.Encode(data)
	ch, err := c.HelperChunk(1, 0, blocks[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 10 {
		t.Fatalf("chunk size = %d, want blockSize/alpha = 10", len(ch))
	}
}

func TestRepairValidation(t *testing.T) {
	c := mustCode(t, 6, 3, 4)
	blocks := make([][]byte, 6)
	for i := range blocks {
		blocks[i] = make([]byte, 8)
	}
	cases := []struct {
		name    string
		failed  int
		helpers []int
	}{
		{"failed out of range", 6, []int{0, 1, 2, 3}},
		{"too few helpers", 0, []int{1, 2, 3}},
		{"helper equals failed", 0, []int{0, 1, 2, 3}},
		{"duplicate helper", 0, []int{1, 1, 2, 3}},
		{"helper out of range", 0, []int{1, 2, 3, 9}},
	}
	for _, tc := range cases {
		if _, err := c.Repair(tc.failed, tc.helpers, blocks); !errors.Is(err, ErrBadHelpers) {
			t.Errorf("%s: err = %v, want ErrBadHelpers", tc.name, err)
		}
	}
	// Helper with a nil block.
	blocks[2] = nil
	if _, err := c.Repair(0, []int{1, 2, 3, 4}, blocks); !errors.Is(err, ErrBadHelpers) {
		t.Errorf("nil helper block: err = %v, want ErrBadHelpers", err)
	}
}

func TestRepairChunkMismatch(t *testing.T) {
	c := mustCode(t, 6, 3, 4)
	chunks := [][]byte{make([]byte, 4), make([]byte, 8), make([]byte, 4), make([]byte, 4)}
	if _, err := c.RepairBlock(0, []int{1, 2, 3, 4}, chunks); !errors.Is(err, ErrBlockSizeMismatch) {
		t.Fatalf("err = %v, want ErrBlockSizeMismatch", err)
	}
	if _, err := c.RepairBlock(0, []int{1, 2, 3, 4}, chunks[:2]); !errors.Is(err, ErrBlockCount) {
		t.Fatalf("err = %v, want ErrBlockCount", err)
	}
}

func TestReconstructionTraffic(t *testing.T) {
	// (12, 6, 10): alpha = 5, traffic = 10/5 = 2 blocks, versus 6 for RS.
	c := mustCode(t, 12, 6, 10)
	if got := c.ReconstructionTraffic(500); got != 1000 {
		t.Fatalf("traffic = %d, want 1000", got)
	}
	// d = k would be RS-like; smallest supported d here is 2k-2.
	c2 := mustCode(t, 4, 2, 2) // alpha 1: traffic = d blocks = k blocks
	if got := c2.ReconstructionTraffic(500); got != 1000 {
		t.Fatalf("traffic = %d, want 1000", got)
	}
}

// Property: random erasure patterns with >= k survivors always decode, and
// repairing a random failure from random helpers reproduces the block.
func TestMDSAndRepairProperty(t *testing.T) {
	c := mustCode(t, 8, 4, 7)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randomData(rng, 4, c.Alpha()*4)
		blocks, err := c.Encode(data)
		if err != nil {
			return false
		}
		// Random k-subset decode.
		perm := rng.Perm(8)[:4]
		avail := make([][]byte, 8)
		for _, i := range perm {
			avail[i] = blocks[i]
		}
		got, err := c.Decode(avail)
		if err != nil {
			return false
		}
		for i := range data {
			if !bytes.Equal(got[i], data[i]) {
				return false
			}
		}
		// Random repair.
		failed := rng.Intn(8)
		var pool []int
		for i := 0; i < 8; i++ {
			if i != failed {
				pool = append(pool, i)
			}
		}
		rep, err := c.Repair(failed, pool, blocks)
		if err != nil {
			return false
		}
		return bytes.Equal(rep, blocks[failed])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLambdaDistinct(t *testing.T) {
	c := mustCode(t, 12, 6, 10)
	seen := make(map[byte]bool)
	for i := 0; i < 12; i++ {
		l, err := c.Lambda(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[l] {
			t.Fatalf("lambda %d repeated", l)
		}
		seen[l] = true
	}
	if _, err := c.Lambda(12); err == nil {
		t.Fatal("out-of-range Lambda did not error")
	}
}

func TestRepairHelperVectorValidation(t *testing.T) {
	c := mustCode(t, 6, 3, 4)
	if _, err := c.RepairHelperVector(-1); err == nil {
		t.Fatal("negative index did not error")
	}
	v, err := c.RepairHelperVector(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != c.Alpha() {
		t.Fatalf("helper vector length %d, want alpha=%d", len(v), c.Alpha())
	}
}
