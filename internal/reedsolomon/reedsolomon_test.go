package reedsolomon

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCode(t *testing.T, n, k int) *Code {
	t.Helper()
	c, err := New(n, k)
	if err != nil {
		t.Fatalf("New(%d, %d): %v", n, k, err)
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

func TestNewValidation(t *testing.T) {
	for _, tt := range []struct{ n, k int }{{0, 0}, {3, 3}, {2, 3}, {4, 0}, {4, -1}, {400, 6}} {
		if _, err := New(tt.n, tt.k); err == nil {
			t.Errorf("New(%d, %d) did not error", tt.n, tt.k)
		}
	}
}

func TestEncodeSystematic(t *testing.T) {
	c := mustCode(t, 6, 4)
	rng := rand.New(rand.NewSource(1))
	data := randomData(rng, 4, 128)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 6 {
		t.Fatalf("got %d blocks, want 6", len(blocks))
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(blocks[i], data[i]) {
			t.Fatalf("data block %d not stored verbatim", i)
		}
	}
	ok, err := c.Verify(blocks)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v; want true, nil", ok, err)
	}
}

func TestEncodeInputValidation(t *testing.T) {
	c := mustCode(t, 6, 4)
	if _, err := c.Encode(make([][]byte, 3)); !errors.Is(err, ErrBlockCount) {
		t.Fatalf("wrong count: err = %v", err)
	}
	bad := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 8), make([]byte, 4)}
	if _, err := c.Encode(bad); !errors.Is(err, ErrBlockSizeMismatch) {
		t.Fatalf("mismatched sizes: err = %v", err)
	}
	withNil := [][]byte{make([]byte, 4), nil, make([]byte, 4), make([]byte, 4)}
	if _, err := c.Encode(withNil); err == nil {
		t.Fatal("nil data block did not error")
	}
}

// TestEncodeInto pins the one EncodeInto shape every codec shares: k shards
// into n caller-owned blocks, dirty on entry, byte-identical to Encode.
func TestEncodeInto(t *testing.T) {
	c := mustCode(t, 5, 3)
	rng := rand.New(rand.NewSource(2))
	data := randomData(rng, 3, 64)
	blocks := make([][]byte, 5)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{0xFF}, 64)
	}
	if err := c.EncodeInto(data, blocks); err != nil {
		t.Fatal(err)
	}
	want, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if !bytes.Equal(blocks[i], want[i]) {
			t.Fatalf("EncodeInto block %d differs from Encode", i)
		}
	}
	if err := c.EncodeInto(data, blocks[:4]); !errors.Is(err, ErrBlockCount) {
		t.Fatalf("n-1 blocks: err = %v", err)
	}
	blocks[4] = make([]byte, 32)
	if err := c.EncodeInto(data, blocks); !errors.Is(err, ErrBlockSizeMismatch) {
		t.Fatalf("short block: err = %v", err)
	}
}

func TestDecodeFastPath(t *testing.T) {
	c := mustCode(t, 6, 4)
	rng := rand.New(rand.NewSource(4))
	data := randomData(rng, 4, 32)
	blocks, _ := c.Encode(data)
	got, err := c.Decode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if &got[i][0] != &blocks[i][0] {
			t.Fatal("fast path should return data blocks without copying")
		}
	}
}

func TestReconstruct(t *testing.T) {
	c := mustCode(t, 9, 6)
	rng := rand.New(rand.NewSource(5))
	data := randomData(rng, 6, 48)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Knock out up to n-k blocks in several patterns.
	for _, missing := range [][]int{{0}, {8}, {0, 8}, {1, 4, 7}, {6, 7, 8}, {0, 1, 2}} {
		work := make([][]byte, len(blocks))
		copy(work, blocks)
		for _, m := range missing {
			work[m] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatalf("missing %v: %v", missing, err)
		}
		for i := range blocks {
			if !bytes.Equal(work[i], blocks[i]) {
				t.Fatalf("missing %v: block %d not reconstructed correctly", missing, i)
			}
		}
	}
}

func TestReconstructNothingMissing(t *testing.T) {
	c := mustCode(t, 5, 3)
	rng := rand.New(rand.NewSource(6))
	data := randomData(rng, 3, 16)
	blocks, _ := c.Encode(data)
	if err := c.Reconstruct(blocks); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructTooManyMissing(t *testing.T) {
	c := mustCode(t, 5, 3)
	blocks := make([][]byte, 5)
	blocks[0] = make([]byte, 8)
	blocks[1] = make([]byte, 8)
	if err := c.Reconstruct(blocks); !errors.Is(err, ErrTooFewBlocks) {
		t.Fatalf("err = %v, want ErrTooFewBlocks", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c := mustCode(t, 6, 4)
	rng := rand.New(rand.NewSource(7))
	data := randomData(rng, 4, 64)
	blocks, _ := c.Encode(data)
	blocks[5][10] ^= 0xff
	ok, err := c.Verify(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify accepted corrupted parity")
	}
}

// Property: for random data and any erasure pattern with at least k
// survivors, decode recovers the original data.
func TestMDSProperty(t *testing.T) {
	c := mustCode(t, 8, 5)
	f := func(seed int64, mask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randomData(rng, 5, 33)
		blocks, err := c.Encode(data)
		if err != nil {
			return false
		}
		avail := make([][]byte, 8)
		count := 0
		for i := 0; i < 8; i++ {
			if mask&(1<<i) != 0 {
				avail[i] = blocks[i]
				count++
			}
		}
		got, err := c.Decode(avail)
		if count < 5 {
			return errors.Is(err, ErrTooFewBlocks)
		}
		if err != nil {
			return false
		}
		for i := range data {
			if !bytes.Equal(got[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReconstructionTraffic(t *testing.T) {
	c := mustCode(t, 12, 6)
	if got := c.ReconstructionTraffic(512); got != 6*512 {
		t.Fatalf("traffic = %d, want %d", got, 6*512)
	}
}

func TestSplitJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, size := range []int{1, 5, 100, 1023, 4096} {
		data := make([]byte, size)
		rng.Read(data)
		shards, per, err := Split(data, 4, 8)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if per%8 != 0 {
			t.Fatalf("size %d: shard size %d not aligned", size, per)
		}
		joined, err := Join(shards, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestSplitValidation(t *testing.T) {
	if _, _, err := Split(nil, 4, 1); err == nil {
		t.Error("empty split did not error")
	}
	if _, _, err := Split([]byte{1}, 0, 1); err == nil {
		t.Error("k=0 split did not error")
	}
	if _, _, err := Split([]byte{1}, 2, 0); err == nil {
		t.Error("align=0 split did not error")
	}
}

func TestJoinTooShort(t *testing.T) {
	if _, err := Join([][]byte{{1, 2}}, 5); err == nil {
		t.Error("short join did not error")
	}
}
