package stripecache

import (
	"bytes"
	"fmt"
	"testing"

	"carousel/internal/workload"
)

// fill returns a deterministic payload for (file, stripe, version).
func fill(size int, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = seed + byte(i*31)
	}
	return b
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	dst := make([]byte, 512)
	if c.Get("f", 0, dst) {
		t.Fatal("hit on an empty cache")
	}
	want := fill(512, 1)
	c.Put("f", 0, append([]byte(nil), want...))
	if !c.Get("f", 0, dst) {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("cached bytes differ")
	}
	// A different stripe of the same file is a distinct key.
	if c.Get("f", 1, dst) {
		t.Fatal("hit on a never-inserted stripe")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Inserts != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 insert", st)
	}
	if st.Bytes != 512 {
		t.Fatalf("bytes = %d, want 512", st.Bytes)
	}
}

func TestSizeMismatchIsAMiss(t *testing.T) {
	c := New(1 << 20)
	c.Put("f", 0, fill(512, 1))
	short := make([]byte, 256)
	if c.Get("f", 0, short) {
		t.Fatal("a hit must copy the exact stripe size; mismatched dst should miss")
	}
}

func TestSizeBoundAndEviction(t *testing.T) {
	const entry = 4 << 10
	cap := int64(numShards * 4 * entry) // room for ~4 entries per shard
	c := New(cap)
	// Each round of 64 keys fills every shard and is looked up once more
	// than the round before, so the admission filter lets it evict.
	dst := make([]byte, entry)
	for i := 0; i < 512; i++ {
		for range i/64 + 1 {
			c.Get("f", i, dst)
		}
		c.Put("f", i, fill(entry, byte(i)))
	}
	st := c.Stats()
	if st.Bytes > cap {
		t.Fatalf("resident bytes %d exceed capacity %d", st.Bytes, cap)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions after inserting 8x the capacity")
	}
	// Residency accounting must agree with the shard contents.
	var resident int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.items {
			resident += int64(len(e.data))
		}
		s.mu.Unlock()
	}
	if resident != st.Bytes {
		t.Fatalf("shard contents hold %d bytes, accounting says %d", resident, st.Bytes)
	}
}

func TestOversizedEntryNotAdmitted(t *testing.T) {
	c := New(numShards * 1024) // 1 KiB per shard
	c.Put("f", 0, fill(4096, 1))
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("oversized entry was admitted (%d bytes resident)", got)
	}
}

// TestScanResistance is the admission filter's property: a one-pass cold
// scan must not evict a re-referenced hot set.
func TestScanResistance(t *testing.T) {
	const entry = 4 << 10
	c := New(numShards * 8 * entry)
	dst := make([]byte, entry)

	// A hot set filling ~half the budget, each entry referenced so the
	// sketch rates it above a key never looked up.
	const hot = numShards * 4
	for i := 0; i < hot; i++ {
		c.Put("hot", i, fill(entry, byte(i)))
	}
	for i := 0; i < hot; i++ {
		if !c.Get("hot", i, dst) {
			t.Fatalf("hot stripe %d missing before the scan", i)
		}
	}

	// A cold scan 8x the cache size, every key touched exactly once.
	for i := 0; i < numShards*64; i++ {
		c.Put("scan", i, fill(entry, byte(i)))
	}

	surviving := 0
	for i := 0; i < hot; i++ {
		if c.Get("hot", i, dst) {
			surviving++
		}
	}
	if surviving < hot*3/4 {
		t.Fatalf("only %d of %d hot stripes survived a cold scan; admission is not scan-resistant", surviving, hot)
	}
}

// TestAdmissionPrefersFrequentKeys: in a shard of one stripe, a key
// looked up once never evicts a resident key looked up more often, and a
// key looked up more often than the resident one does evict it.
func TestAdmissionPrefersFrequentKeys(t *testing.T) {
	const size = 1024
	c := New(numShards * size)
	sts, s := shardStripes(c, "f", 6)
	hot, frequent := sts[0], sts[5]
	dst := make([]byte, size)
	c.Put("f", hot, fill(size, 1))
	for range 3 {
		if !c.Get("f", hot, dst) {
			t.Fatal("the resident key missed")
		}
	}
	resident := func(st int) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.items[Key{File: "f", Stripe: st}] != nil
	}
	for _, st := range sts[1:5] {
		c.Get("f", st, dst)
		c.Put("f", st, fill(size, 2))
		if !resident(hot) || resident(st) {
			t.Fatalf("stripe %d, looked up once, evicted a key looked up three times", st)
		}
	}
	for range 4 {
		c.Get("f", frequent, dst)
	}
	c.Put("f", frequent, fill(size, 3))
	if resident(hot) || !resident(frequent) {
		t.Fatal("a key looked up four times was not admitted in place of one looked up three times")
	}
	if !c.Get("f", frequent, dst) || !bytes.Equal(dst, fill(size, 3)) {
		t.Fatal("the admitted key does not serve its bytes")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Inserts != 2 || st.Bytes != size {
		t.Fatalf("stats = %+v, want 1 eviction, 2 inserts, %d bytes", st, size)
	}
}

// TestZipfHitRatio replays the benchmark's swarm_hot draw offline: Zipf(1.1)
// over 1,024 one-stripe objects of 24,570 bytes through a 2 MiB cache,
// each lookup a Get and, on a miss, a Put. The admission filter holds a
// hit ratio of at least 0.72, where a probationary FIFO with a ghost ring
// read 0.696.
func TestZipfHitRatio(t *testing.T) {
	const (
		objects = 1024
		size    = 24570
		warmup  = 2000
		lookups = 200_000
	)
	c := New(2 << 20)
	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("swarm_hot/obj%04d", i)
	}
	z := workload.NewZipf(1.1, objects, 20170605)
	dst := make([]byte, size)
	hits := 0
	for n := range warmup + lookups {
		name := names[z.Next()]
		if c.Get(name, 0, dst) {
			if n >= warmup {
				hits++
			}
			continue
		}
		c.Put(name, 0, make([]byte, size))
	}
	ratio := float64(hits) / lookups
	t.Logf("hit ratio %.4f, %+v", ratio, c.Stats())
	if ratio < 0.72 {
		t.Fatalf("hit ratio %.4f, want at least 0.72", ratio)
	}
}

func TestInvalidateMakesStaleUnreachable(t *testing.T) {
	c := New(1 << 20)
	dst := make([]byte, 512)
	c.Put("f", 0, fill(512, 1))
	c.Put("f", 1, fill(512, 2))
	c.Put("other", 0, fill(512, 3))
	if v := c.Version("f"); v != 0 {
		t.Fatalf("fresh file version = %d, want 0", v)
	}
	c.Invalidate("f")
	if v := c.Version("f"); v != 1 {
		t.Fatalf("version after Invalidate = %d, want 1", v)
	}
	if c.Get("f", 0, dst) || c.Get("f", 1, dst) {
		t.Fatal("stale stripe served after Invalidate")
	}
	if !c.Get("other", 0, dst) {
		t.Fatal("Invalidate of one file dropped another file's entries")
	}
	// The purge returns the stale bytes to the budget.
	if got := c.Stats().Bytes; got != 512 {
		t.Fatalf("resident bytes after purge = %d, want 512", got)
	}
	// A fresh insert lands under the new version and is servable.
	c.Put("f", 0, fill(512, 9))
	if !c.Get("f", 0, dst) {
		t.Fatal("post-invalidate insert not served")
	}
	if !bytes.Equal(dst, fill(512, 9)) {
		t.Fatal("post-invalidate read returned stale bytes")
	}
}

func TestZeroCapacityNeverAdmits(t *testing.T) {
	c := New(0)
	c.Put("f", 0, fill(512, 1))
	if c.Get("f", 0, make([]byte, 512)) {
		t.Fatal("zero-capacity cache served a hit")
	}
}

// TestConcurrentMix hammers every public entry point at once; the race
// detector is the assertion.
func TestConcurrentMix(t *testing.T) {
	c := New(numShards * 64 << 10)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			dst := make([]byte, 4096)
			for i := 0; i < 500; i++ {
				file := fmt.Sprintf("f%d", i%3)
				switch i % 5 {
				case 0:
					c.Put(file, i%17, fill(4096, byte(i)))
				case 1, 2, 3:
					c.Get(file, i%17, dst)
				case 4:
					if i%50 == 4 {
						c.Invalidate(file)
					}
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := c.Stats(); st.Bytes < 0 || st.Bytes > c.Capacity() {
		t.Fatalf("byte accounting out of bounds after concurrent mix: %+v", st)
	}
}
