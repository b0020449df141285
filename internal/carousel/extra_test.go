package carousel

import (
	"bytes"
	"math/rand"
	"testing"
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

func TestEncodeConcurrencyMatchesSerial(t *testing.T) {
	serial := mustCode(t, 12, 6, 10, 12)
	par, err := New(12, 6, 10, 12, WithEncodeConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	// Large enough to cross the parallel threshold.
	size := serial.UnitsPerBlock() * 4096
	data := randomShards(rng, 6, size)
	a, err := serial.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("parallel encode differs at block %d", i)
		}
	}
	// Small buffers take the serial path and must also match.
	small := randomShards(rng, 6, serial.UnitsPerBlock()*2)
	a, _ = serial.Encode(small)
	b, err = par.Encode(small)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("small parallel encode differs at block %d", i)
		}
	}
}

func TestWithEncodeConcurrencyClamps(t *testing.T) {
	c, err := New(4, 2, 2, 4, WithEncodeConcurrency(-3))
	if err != nil {
		t.Fatal(err)
	}
	if c.workers != 1 {
		t.Fatalf("workers = %d, want clamped to 1", c.workers)
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
			t.Logf("(%d,%d,%d,%d) lost=%d: patchSources=%d",
				cfg.n, cfg.k, cfg.d, cfg.p, lost, len(plan.Patch))
		}
	}
}

var errMismatch = bytesError("parallel read mismatch")

type bytesError string

func (e bytesError) Error() string { return string(e) }
