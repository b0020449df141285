package bufpool

import (
	"sync"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	b := Get(1000)
	if len(b) != 1000 {
		t.Fatalf("len = %d, want 1000", len(b))
	}
	if cap(b) != 1024 {
		t.Fatalf("cap = %d, want the 1024 class", cap(b))
	}
	for i := range b {
		b[i] = byte(i)
	}
	Put(b)
	// The same class must serve the next request of any fitting length.
	c := Get(700)
	if len(c) != 700 {
		t.Fatalf("len = %d, want 700", len(c))
	}
	if &c[0] != &b[0] {
		t.Error("Get after Put did not reuse the buffer")
	}
}

func TestTinyAndHugeBypass(t *testing.T) {
	if b := Get(0); b != nil {
		t.Errorf("Get(0) = %v, want nil", b)
	}
	if b := Get(-1); b != nil {
		t.Errorf("Get(-1) = %v, want nil", b)
	}
	huge := Get(1<<maxClassBits + 1)
	if len(huge) != 1<<maxClassBits+1 {
		t.Fatalf("huge len = %d", len(huge))
	}
	Put(huge)            // filed under the max class, not lost
	Put(nil)             // no-op
	Put(make([]byte, 3)) // below the min class: dropped
}

func TestForeignCapacityIsFiledByFloor(t *testing.T) {
	// A 100-cap buffer covers class 6 (64 B) fully but not class 7.
	Put(make([]byte, 100))
	b := Get(64)
	if cap(b) < 64 {
		t.Fatalf("cap = %d, want >= 64", cap(b))
	}
}

// drainClass empties every shard of a class so retention tests start from
// a known state.
func drainClass(cl *class) {
	for s := range cl.shards {
		sh := &cl.shards[s]
		sh.mu.Lock()
		for i := 0; i < sh.n; i++ {
			sh.bufs[i] = nil
		}
		sh.n = 0
		sh.mu.Unlock()
	}
}

// countClass sums retained buffers across a class's shards.
func countClass(cl *class) int {
	n := 0
	for s := range cl.shards {
		sh := &cl.shards[s]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

func TestBoundedRetention(t *testing.T) {
	cl := &classes[10]
	drainClass(cl)
	const maxPerClass = nshards * maxPerShard
	for i := 0; i < maxPerClass+10; i++ {
		Put(make([]byte, 1<<10))
	}
	if n := countClass(cl); n != maxPerClass {
		t.Fatalf("class retained %d buffers, want the %d cap", n, maxPerClass)
	}
}

// TestPutOverflowsToSiblingShard pins the scan-for-room behavior: when the
// randomly picked home shard is full, Put must file the buffer in another
// shard rather than drop it, so sharding does not cost retention.
func TestPutOverflowsToSiblingShard(t *testing.T) {
	cl := &classes[12]
	drainClass(cl)
	// maxPerShard+1 puts cannot all land in one shard, whichever shards
	// the random picks choose; none may be dropped while the class has
	// room.
	before := mDrops.Value()
	for i := 0; i < maxPerShard+1; i++ {
		Put(make([]byte, 1<<12))
	}
	if got := mDrops.Value() - before; got != 0 {
		t.Fatalf("%d puts dropped with the class nearly empty", got)
	}
	if n := countClass(cl); n != maxPerShard+1 {
		t.Fatalf("class retained %d buffers, want %d", n, maxPerShard+1)
	}
}

// TestGetStealsFromSiblingShard pins the scan-on-miss behavior: a buffer
// parked in any shard must be found before Get allocates.
func TestGetStealsFromSiblingShard(t *testing.T) {
	cl := &classes[13]
	drainClass(cl)
	b := make([]byte, 1<<13)
	Put(b)
	// Whatever shard b landed in, a Get from any random start must reach
	// it: repeat enough times to cover every starting shard.
	for i := 0; i < 4*nshards; i++ {
		g := Get(1 << 13)
		if &g[0] != &b[0] {
			t.Fatalf("Get allocated fresh memory with a pooled buffer available (iter %d)", i)
		}
		Put(g)
	}
}

// TestConcurrent shakes the freelist under the race detector.
func TestConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := Get(512 + g)
				b[0] = byte(i)
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBufpoolParallelGetPut measures Get/Put round-trips under
// contention on a single hot size class — the stripe pipeline's access
// pattern. Run with -cpu 1,2,4,8 to see how the sharded free lists scale.
func BenchmarkBufpoolParallelGetPut(b *testing.B) {
	// Pre-seed the class so steady state is all hits.
	seed := make([][]byte, nshards*maxPerShard)
	for i := range seed {
		seed[i] = Get(64 << 10)
	}
	for _, s := range seed {
		Put(s)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			buf := Get(64 << 10)
			buf[0] = 1
			Put(buf)
		}
	})
}
