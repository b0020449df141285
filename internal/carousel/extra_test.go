package carousel

import (
	"bytes"
	"math/rand"
	"testing"

	"carousel/internal/workpool"
)

func TestVerify(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 12)
	rng := rand.New(rand.NewSource(21))
	size := c.UnitsPerBlock() * 8
	data := randomShards(rng, 6, size)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(blocks)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v; want true", ok, err)
	}
	// Corrupt one byte in a parity region of block 11.
	blocks[11][len(blocks[11])-1] ^= 0x5a
	ok, err = c.Verify(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify accepted a corrupted block")
	}
	// Corrupt a data-region byte instead.
	blocks[11][len(blocks[11])-1] ^= 0x5a
	blocks[2][0] ^= 0x01
	ok, err = c.Verify(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify accepted a corrupted data unit")
	}
	// Nil block is an error, not a false.
	blocks[2][0] ^= 0x01
	blocks[5] = nil
	if _, err := c.Verify(blocks); err == nil {
		t.Fatal("Verify with nil block did not error")
	}
}

// TestEncodeConcurrencyMatchesSerial: Encode runs its plan at the worker
// pool's width, striping units of 64 KiB or more across the pool's
// executors, and must write exactly what the generator applied serially
// writes, with units on both sides of the striping threshold.
func TestEncodeConcurrencyMatchesSerial(t *testing.T) {
	c := mustCode(t, 6, 3, 4, 6)
	t.Logf("pool width %d", workpool.Width())
	rng := rand.New(rand.NewSource(22))
	for _, usize := range []int{2 << 10, 64 << 10, 96<<10 + 320} {
		size := c.UnitsPerBlock() * usize
		data := randomShards(rng, c.K(), size)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		var in, want [][]byte
		for _, shard := range data {
			for u := 0; u < c.UnitsPerBlock(); u++ {
				in = append(in, shard[u*usize:(u+1)*usize])
			}
		}
		ref := make([][]byte, c.N())
		for b := range ref {
			ref[b] = make([]byte, size)
			want = c.Units(want, b, ref[b])
		}
		c.gen.ApplyToUnits(in, want)
		for b := range blocks {
			if !bytes.Equal(blocks[b], ref[b]) {
				t.Fatalf("unit size %d: block %d differs from the serial generator product", usize, b)
			}
		}
	}
}

// The decode and read caches are shared; hammer them from goroutines under
// -race.
func TestConcurrentDecodes(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 10)
	rng := rand.New(rand.NewSource(23))
	size := c.UnitsPerBlock() * 2
	data := randomShards(rng, 6, size)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(data)
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		g := g
		go func() {
			avail := make([][]byte, 12)
			copy(avail, blocks)
			avail[g%10] = nil
			out, err := c.ParallelRead(avail)
			if err == nil && !bytes.Equal(out, want) {
				err = errMismatch
			}
			done <- err
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestExtendedReadUsesParityUnits pins the future-work extension: with
// p = n and failures, the read is served from parity units at 1/p
// granularity rather than k full blocks, for every tolerable failure
// count.
func TestExtendedReadUsesParityUnits(t *testing.T) {
	for _, cfg := range []struct{ n, k, d, p int }{
		{12, 6, 10, 12}, {6, 3, 3, 6}, {4, 2, 3, 4},
	} {
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		rng := rand.New(rand.NewSource(55))
		size := c.UnitsPerBlock() * 4
		data := randomShards(rng, cfg.k, size)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		file := flatten(data)
		for lost := 1; lost <= cfg.n-cfg.k; lost++ {
			avail := make([][]byte, cfg.n)
			copy(avail, blocks)
			flags := make([]bool, cfg.n)
			for i := range flags {
				flags[i] = true
			}
			for i := 0; i < lost; i++ {
				avail[i] = nil
				flags[i] = false
			}
			got, err := c.ParallelRead(avail)
			if err != nil {
				t.Fatalf("%+v lost=%d: %v", cfg, lost, err)
			}
			if !bytes.Equal(got, file) {
				t.Fatalf("%+v lost=%d: mismatch", cfg, lost)
			}
			plan, err := c.PlanRead(flags, size)
			if err != nil {
				t.Fatalf("%+v lost=%d plan: %v", cfg, lost, err)
			}
			if plan.TotalBytes != cfg.k*size {
				t.Fatalf("%+v lost=%d: plan moves %d bytes, want %d", cfg, lost, plan.TotalBytes, cfg.k*size)
			}
			checkScheme(t, plan, cfg.p)
			t.Logf("(%d,%d,%d,%d) lost=%d: %s from %d range sources",
				cfg.n, cfg.k, cfg.d, cfg.p, lost, plan.Mode, len(rangeBytes(plan)))
		}
	}
}

var errMismatch = bytesError("parallel read mismatch")

type bytesError string

func (e bytesError) Error() string { return string(e) }
