package carousel

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// dirty returns n bytes of the 0xA5 pattern standing in for recycled pool
// memory: a destination the Into entry points must fully overwrite, and
// must leave alone when they reject it.
func dirty(n int) []byte {
	return bytes.Repeat([]byte{0xA5}, n)
}

func isDirty(b []byte) bool {
	return bytes.Equal(b, dirty(len(b)))
}

// intoCodes are the shapes the Into entry points are checked on: the
// benchmark's code, an RS-based code (d = k, whole-block chunks and the
// fused rebuild plan), an MSR-based code at d = 2k-1, and codes whose last
// n-p blocks carry no data.
var intoCodes = []struct{ n, k, d, p int }{
	{12, 6, 10, 10},
	{12, 6, 6, 12},
	{6, 3, 5, 6},
	{9, 6, 6, 8},
	{10, 4, 8, 7},
}

// TestIntoMatchesAllocatingForms is the property behind the pooled write and
// rebuild paths: EncodeInto, HelperChunkInto and RepairBlockInto into dirty
// buffers are byte-identical to Encode, HelperChunk and RepairBlock, for
// every failed block over varying helper sets, at sizes on both sides of the
// serial/striped execution threshold.
func TestIntoMatchesAllocatingForms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, cfg := range intoCodes {
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		u := c.UnitsPerBlock()
		for _, size := range []int{u, 37 * u, (64<<10/u + 3) * u} {
			data := randomShards(rng, cfg.k, size)
			want, err := c.Encode(data)
			if err != nil {
				t.Fatalf("%+v: Encode: %v", cfg, err)
			}
			blocks := make([][]byte, cfg.n)
			for i := range blocks {
				blocks[i] = dirty(size)
			}
			if err := c.EncodeInto(data, blocks); err != nil {
				t.Fatalf("%+v: EncodeInto: %v", cfg, err)
			}
			for i := range want {
				if !bytes.Equal(blocks[i], want[i]) {
					t.Fatalf("%+v size %d: EncodeInto block %d differs from Encode", cfg, size, i)
				}
			}
			for failed := 0; failed < cfg.n; failed++ {
				// d survivors from a ring walk whose start moves with failed, so
				// the helper set (and with it the cached repair plan) varies.
				helpers := make([]int, 0, cfg.d)
				for i := failed % 3; len(helpers) < cfg.d; i++ {
					if h := (failed + 1 + i) % cfg.n; h != failed {
						helpers = append(helpers, h)
					}
				}
				chunks := make([][]byte, cfg.d)
				for i, h := range helpers {
					wantChunk, err := c.HelperChunk(h, failed, want[h])
					if err != nil {
						t.Fatalf("%+v: HelperChunk(%d,%d): %v", cfg, h, failed, err)
					}
					chunks[i] = dirty(c.HelperChunkSize(size))
					if err := c.HelperChunkInto(h, failed, want[h], chunks[i]); err != nil {
						t.Fatalf("%+v: HelperChunkInto(%d,%d): %v", cfg, h, failed, err)
					}
					if !bytes.Equal(chunks[i], wantChunk) {
						t.Fatalf("%+v size %d: HelperChunkInto(%d,%d) differs from HelperChunk", cfg, size, h, failed)
					}
				}
				wantBlock, err := c.RepairBlock(failed, helpers, chunks)
				if err != nil {
					t.Fatalf("%+v: RepairBlock(%d,%v): %v", cfg, failed, helpers, err)
				}
				got := dirty(size)
				if err := c.RepairBlockInto(failed, helpers, chunks, got); err != nil {
					t.Fatalf("%+v: RepairBlockInto(%d,%v): %v", cfg, failed, helpers, err)
				}
				if !bytes.Equal(got, wantBlock) || !bytes.Equal(got, want[failed]) {
					t.Fatalf("%+v size %d: RepairBlockInto(%d,%v) differs from RepairBlock or the encoded block",
						cfg, size, failed, helpers)
				}
			}
		}
	}
}

// TestIntoRejectsBadDestinationsUnwritten checks that a nil or wrong-length
// destination is refused with the package's size/count errors before a
// single byte is written to any destination.
func TestIntoRejectsBadDestinationsUnwritten(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, cfg := range intoCodes {
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		size := 5 * c.UnitsPerBlock()
		data := randomShards(rng, cfg.k, size)
		encoded, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() [][]byte {
			blocks := make([][]byte, cfg.n)
			for i := range blocks {
				blocks[i] = dirty(size)
			}
			return blocks
		}
		short, missing, fewer := fresh(), fresh(), fresh()[:cfg.n-1]
		short[cfg.n-1] = dirty(size - c.UnitsPerBlock())
		missing[cfg.n/2] = nil
		for _, tc := range []struct {
			name   string
			blocks [][]byte
			want   error
		}{
			{"nil slice", nil, ErrBlockCount},
			{"n-1 blocks", fewer, ErrBlockCount},
			{"nil block", missing, ErrBlockCount},
			{"short block", short, ErrBlockSizeMismatch},
		} {
			if err := c.EncodeInto(data, tc.blocks); !errors.Is(err, tc.want) {
				t.Errorf("%+v: EncodeInto with %s: err = %v, want %v", cfg, tc.name, err, tc.want)
			}
			for i, b := range tc.blocks {
				if !isDirty(b) {
					t.Errorf("%+v: EncodeInto with %s wrote block %d before refusing", cfg, tc.name, i)
				}
			}
		}

		failed := 1
		helpers := make([]int, 0, cfg.d)
		for i := 0; len(helpers) < cfg.d; i++ {
			if i != failed {
				helpers = append(helpers, i)
			}
		}
		chunkSize := c.HelperChunkSize(size)
		chunks := make([][]byte, cfg.d)
		for i, h := range helpers {
			if chunks[i], err = c.HelperChunk(h, failed, encoded[h]); err != nil {
				t.Fatal(err)
			}
		}
		for _, dst := range [][]byte{nil, dirty(chunkSize - 1), dirty(chunkSize + c.UnitsPerBlock())} {
			if err := c.HelperChunkInto(helpers[0], failed, encoded[helpers[0]], dst); !errors.Is(err, ErrBlockSizeMismatch) {
				t.Errorf("%+v: HelperChunkInto a %d-byte destination: err = %v, want ErrBlockSizeMismatch", cfg, len(dst), err)
			}
			if !isDirty(dst) {
				t.Errorf("%+v: HelperChunkInto wrote a %d-byte destination before refusing", cfg, len(dst))
			}
		}
		for _, dst := range [][]byte{nil, dirty(size - 1), dirty(size + c.UnitsPerBlock())} {
			if err := c.RepairBlockInto(failed, helpers, chunks, dst); !errors.Is(err, ErrBlockSizeMismatch) {
				t.Errorf("%+v: RepairBlockInto a %d-byte destination: err = %v, want ErrBlockSizeMismatch", cfg, len(dst), err)
			}
			if !isDirty(dst) {
				t.Errorf("%+v: RepairBlockInto wrote a %d-byte destination before refusing", cfg, len(dst))
			}
		}
	}
}

// TestEncodePlanSparsityMatchesRS pins Fig. 5's claim in the compiled
// schedule: with an RS base (d = k) every parity-unit row of the remapped
// generator combines exactly k data units, so a Carousel(2k,k,k,2k) encode
// schedules (n-k)*U*k multiplies — the same k per parity row a systematic
// RS code pays, despite the generator being U times larger — and moves its
// k*U data units with plain copies.
func TestEncodePlanSparsityMatchesRS(t *testing.T) {
	for _, k := range []int{4, 6, 8, 10} {
		n := 2 * k
		c := mustCode(t, n, k, k, n)
		u := c.UnitsPerBlock()
		counts := c.EncodePlan().Counts()
		parityRows := (n - k) * u
		if got, want := counts.Mul+counts.MulAdd, parityRows*k; got != want {
			t.Errorf("k=%d: encode plan has %d multiplies over %d parity-unit rows (%.2f per row), want exactly k=%d per row",
				k, got, parityRows, float64(got)/float64(parityRows), k)
		}
		if counts.Copy != k*u || counts.Clear != 0 {
			t.Errorf("k=%d: encode plan has %d copies and %d clears, want %d copies (one per data unit) and no clears",
				k, counts.Copy, counts.Clear, k*u)
		}
	}
}
