//go:build !race

package blockserver

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"carousel/internal/carousel"
)

// Allocation pins live behind !race: the race detector's instrumentation
// perturbs allocation counts, and the race suites already exercise the
// same paths for correctness.

// totalAlloc runs f and returns the bytes the process allocated meanwhile.
// The in-process servers are included: callers subtract what those must
// retain.
func totalAlloc(f func()) int64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc)
}

// benchBlock is the benchmark's block size: not a power of two, so a
// size-classed ingest buffer would show as a third more bytes than stored.
const benchBlock = 43680

var heapSink []byte

// heapSize is what the runtime charges for one exact-size n-byte slice (its
// own size classes round 43,680 up to 49,152) — the unit in which the pins
// below subtract the blocks the in-process servers retain.
func heapSize(n int) int64 {
	return leastAlloc(3, func() { heapSink = make([]byte, n) })
}

// leastAlloc is the least totalAlloc(f) of runs calls. TotalAlloc is
// process-wide, so one measurement also carries whatever else the process
// allocates meanwhile — under a loaded `go test ./...`, some 5 KB on a
// single make and some 80 KB on a degraded ReadFile have been seen, the
// latter never caught by a per-stack allocation diff of repeated reads —
// and none of that recurs on every call, so the minimum is f's own cost.
func leastAlloc(runs int, f func()) int64 {
	least := int64(math.MaxInt64)
	for range runs {
		least = min(least, totalAlloc(f))
	}
	return least
}

// TestPutIngestIsExactSize pins the server's ingest: a warm Put of a new
// name, with no spare buffer to land in, costs the process one
// payload-sized allocation — the slice the block map retains — and nothing
// size-classed or pooled on top of it; a warm Put that replaces a block
// lands in the buffer of the block it replaced and allocates none.
func TestPutIngestIsExactSize(t *testing.T) {
	servers, addrs := startServers(t, mustCode(t), 1)
	ctx := context.Background()
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("i"), benchBlock)
	if err := c.Put(ctx, "blk", payload); err != nil {
		t.Fatal(err)
	}
	const rounds = 32
	puts := func(name func(i int) string) int64 {
		return totalAlloc(func() {
			for i := 0; i < rounds; i++ {
				if err := c.Put(ctx, name(i), payload); err != nil {
					t.Fatal(err)
				}
			}
		}) / rounds
	}
	if per, block := puts(func(i int) string { return fmt.Sprint("new", i) }), heapSize(benchBlock); per < block || per > block+1024 {
		t.Errorf("a warm %d-byte Put of a new name allocates %d bytes, want one exact-size slice (%d) plus at most 1 KiB", benchBlock, per, block)
	}
	rewrite := func(int) string { return "blk" }
	puts(rewrite) // its first Put finds no spare
	if per := puts(rewrite); per > 1024 {
		t.Errorf("a warm %d-byte Put over a stored block allocates %d bytes, want at most 1 KiB: no block", benchBlock, per)
	}
	if _, stored, _ := servers[0].Stats(); stored != (1+rounds)*benchBlock {
		t.Errorf("server holds %d bytes, want %d", stored, (1+rounds)*benchBlock)
	}
}

// TestWriteFileAllocs pins the write path: a warm rewrite of an 8-stripe
// file allocates less than 5% of the block bytes it stores at the servers
// — encode output, padding scratch and wire buffers are all pooled, and
// each server lands a put's blocks in the buffers of the blocks they
// replace. Allocating the blocks afresh cost some 112%.
func TestWriteFileAllocs(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, benchBlock)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	const stripes = 8
	data := make([]byte, stripes*code.K()*benchBlock-100) // the last stripe is padded
	rand.New(rand.NewSource(81)).Read(data)
	write := func() {
		if _, err := store.WriteFile(ctx, "f", data); err != nil {
			t.Fatal(err)
		}
	}
	write() // dial, fill the pools
	write()
	stored := int64(stripes * code.N() * benchBlock)
	if got := totalAlloc(write); got*20 >= stored {
		t.Errorf("a warm rewrite of %d bytes allocates %d bytes, %.1f%% of the %d block bytes it stores, want under 5%%",
			len(data), got, 100*float64(got)/float64(stored), stored)
	}
	// Per stripe: some 17 small objects per Put — spans on both ends of the
	// traced RPC, closures, the block name.
	if n := testing.AllocsPerRun(5, write); n > 256*stripes {
		t.Errorf("a warm WriteFile of %d stripes allocates %.0f times, want at most %d", stripes, n, 256*stripes)
	}
}

// TestRepairAllocs pins the rebuild path: helper chunks and the wire
// buffers are pooled, so beyond the one exact-size block the home server
// rebuilds into, a warm Repair allocates less than a block. That block is
// allocated afresh, never a spare of a retired one: a spare would already
// hold the bytes a rebuild that failed to write them is checked against.
func TestRepairAllocs(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, benchBlock)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	data := make([]byte, code.K()*benchBlock)
	rand.New(rand.NewSource(82)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	repair := func() {
		if _, err := store.Repair(ctx, "f", 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	repair() // compile the plan, dial, fill the pools
	repair()
	const rounds = 8
	got := totalAlloc(func() {
		for i := 0; i < rounds; i++ {
			repair()
		}
	})
	if extra := got/rounds - heapSize(benchBlock); extra < 0 || extra >= benchBlock {
		t.Errorf("a warm Repair allocates %d bytes beyond the rebuilt block the server keeps, want from 0 (a fresh block) to less than one block (%d)",
			extra, benchBlock)
	}
}

// TestPooledGetRangeIntoAllocs pins the scatter-read hot path: a warm
// GetRangeInto lands the payload in caller memory with no pooled
// intermediary, and the request is described by value — no closure.
func TestPooledGetRangeIntoAllocs(t *testing.T) {
	_, addrs := startServers(t, mustCode(t), 1)
	pool := NewPool(addrs, PoolOptions{PerPeer: 1, Client: fastOpts()})
	t.Cleanup(pool.Close)
	ctx := context.Background()
	payload := bytes.Repeat([]byte("s"), 64<<10)
	c, err := pool.Get(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(c)
	if err := c.Put(ctx, "blk-into", payload); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4096)
	if err := c.GetRangeInto(ctx, "blk-into", 0, dst); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if err := c.GetRangeInto(ctx, "blk-into", 128, dst); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("warm GetRangeInto allocates %.1f times per run, want <= 1", n)
	}
}

// TestPooledGetAllocs pins the client's pooled-payload path: a warm Get
// over real TCP — request built in the client scratch, response landing in
// a pooled buffer the caller recycles — allocates at most once per
// exchange.
func TestPooledGetAllocs(t *testing.T) {
	_, addrs := startServers(t, mustCode(t), 1)
	pool := NewPool(addrs, PoolOptions{PerPeer: 1, Client: fastOpts()})
	t.Cleanup(pool.Close)
	ctx := context.Background()
	payload := bytes.Repeat([]byte("r"), 4096)
	c, err := pool.Get(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(c)
	if err := c.Put(ctx, "blk", payload); err != nil {
		t.Fatal(err)
	}
	// Warm the connection and the buffer pool.
	warm, err := c.Get(ctx, "blk")
	if err != nil {
		t.Fatal(err)
	}
	Recycle(warm)
	n := testing.AllocsPerRun(100, func() {
		out, err := c.Get(ctx, "blk")
		if err != nil {
			t.Fatal(err)
		}
		Recycle(out)
	})
	if n > 1 {
		t.Errorf("warm pooled Get allocates %.1f times per run, want <= 1", n)
	}
}

// TestDegradedReadAllocs pins the planned degraded read: with one of the p
// sources down and the pool's memory warm, ReadFile allocates what the
// healthy read does — the output buffer and its stats — plus at most 2% of
// the file: replacement units land in pooled scratch and the solve
// allocates nothing block-sized. Counted in objects, a degraded read makes
// at most 2 more than a healthy one, servers included, whose 8 stripes
// make about 3 in all: its plan is memoized, only a half-open probe builds
// a context, the stripe loop owns the availability and solve lists it
// plans and solves with, each name is written straight into its request,
// and a stripe finishes on a goroutine started from the loop's bound
// starter. It makes about 1 more at (12,6,10,10); a fresh plan, probe
// context and solve list per stripe made 16 more a stripe, and a block
// name per ask and a closure per finished stripe about 10 a stripe.
//
// Each side is the least of five warm reads (see leastAlloc). Besides the
// unexplained 80 KB, a single read picks up a few KB when the runtime
// refills the per-P caches the preceding runtime.GC emptied. The extra is
// not the peer memory's half-open probe: the measured reads start some
// 70 ms after the dead peer is found, well inside its 1 s window, and a
// probe dials at most once a window, so it could spoil one read of the
// five but not the minimum.
func TestDegradedReadAllocs(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	servers, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, benchBlock)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	const stripes = 8
	data := make([]byte, stripes*code.K()*benchBlock)
	rand.New(rand.NewSource(83)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	read := func() {
		got, _, err := store.ReadFile(ctx, "f", len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read: err %v, identical %v", err, bytes.Equal(got, data))
		}
	}
	read() // dial, fill the pools
	read()
	healthy, healthyObjs := leastAlloc(5, read), testing.AllocsPerRun(5, read)
	servers[2].Close()
	read() // find the dead peer, compile the solver
	read()
	degraded, degradedObjs := leastAlloc(5, read), testing.AllocsPerRun(5, read)
	if limit := healthy + int64(len(data))/50; degraded > limit {
		t.Errorf("a warm degraded read of %d bytes allocates %d bytes, the healthy read %d: want at most %d (healthy + 2%%)",
			len(data), degraded, healthy, limit)
	}
	t.Logf("a warm read of %d stripes: %.0f objects healthy, %.0f degraded", stripes, healthyObjs, degradedObjs)
	if limit := healthyObjs + 2; degradedObjs > limit {
		t.Errorf("a warm degraded read of %d stripes allocates %.0f objects, the healthy read %.0f: want at most %.0f (healthy + 2)",
			stripes, degradedObjs, healthyObjs, limit)
	}
}

// TestHealthyReadAllocs pins a warm healthy read of the benchmark's 8 MiB
// file, one batch of 32 stripes: beyond its output it allocates at most 64
// bytes a stripe, servers included (about 11: its stats). Each source's
// exchange carries its block of every stripe in the loop's own name list,
// the names written straight into its wire bytes, and each stripe
// finishes on a goroutine started from the loop's bound starter; one list
// built fresh per exchange made it about 750, and a block name per ask and
// a closure per finished stripe about 115.
func TestHealthyReadAllocs(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, benchBlock)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	const stripes = 32
	data := make([]byte, stripes*code.K()*benchBlock)
	rand.New(rand.NewSource(89)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	read := func() {
		got, _, err := store.ReadFile(ctx, "f", len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read: err %v, identical %v", err, bytes.Equal(got, data))
		}
	}
	read() // dial, fill the pools
	read()
	perStripe := (leastAlloc(5, read) - heapSize(len(data))) / stripes
	if perStripe > 64 {
		t.Errorf("a warm healthy read allocates %d bytes a stripe beyond its output, want at most 64", perStripe)
	}
	t.Logf("a warm healthy read: %d bytes a stripe beyond its output", perStripe)
}

// TestPoolCheckoutAllocs pins the checkout of a parked connection: Get
// probes it for staleness (a MSG_PEEK through the RawConn the client kept
// from its dial) and Put parks it again, allocating nothing — a small
// read checks out p connections.
func TestPoolCheckoutAllocs(t *testing.T) {
	_, addrs := startServers(t, mustCode(t), 1)
	pool := NewPool(addrs, PoolOptions{PerPeer: 1, Client: fastOpts()})
	t.Cleanup(pool.Close)
	ctx := context.Background()
	c, err := pool.Get(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "blk", []byte("parked")); err != nil { // dial
		t.Fatal(err)
	}
	pool.Put(c)
	n := testing.AllocsPerRun(100, func() {
		c, err := pool.Get(ctx, addrs[0])
		if err != nil || c.conn == nil {
			t.Fatalf("checkout: err %v, connected %v", err, err == nil && c.conn != nil)
		}
		pool.Put(c)
	})
	if n != 0 {
		t.Errorf("a warm checkout and return allocates %.1f times, want 0", n)
	}
}

// TestStoreCacheMissAllocs pins the cold cached read: single-stripe
// objects read round robin through a cache of two stripes a shard, so
// most reads miss and each miss's flight evicts another stripe, allocate
// at most 1.005 bytes per byte returned, and at most 3 objects a read,
// servers included (it logs about 1.003 and 2.0). That is the output
// buffer the caller keeps and its ReadStats, 64 bytes of plain counts —
// no span while the caller
// traces nothing, no lock in the stats of a read of one batch — and no
// stripe, entry or name: a miss's flight fetches into an entry the cache
// retired, buffer and all, the flight is leased from its shard's free
// list with the done channel it keeps for its life and has no context of
// its own, so its round arms the flight's abort instead of registering a
// context.AfterFunc, the round's sources start from the loop's bound
// starter, each exchange's block name is written straight into the
// client's own name list, and the batch runs on a leased loop
// (batchLoop), whose asks, exchanges and round hook served an earlier
// batch. A fresh stripe per miss cost 2.15; a span tree per read, a
// context and a hook per exchange, 1.42 and 171 objects; a stripe loop
// allocated per batch, 1.12 and 45; a flight, its cancel context, the
// round's AfterFunc and a closure per source, 1.05 and 34.3; a done
// channel and an entry per miss, a block name per exchange and a lock per
// read, 1.012 and 13.7; and, once every miss solved a whole plan, a
// solve's unit tables from a sync.Pool that each GC emptied, about 1.006.
func TestStoreCacheMissAllocs(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startServers(t, code, code.N())
	const block, objects = 4095, 128 // the benchmark's swarm objects
	stripe := code.K() * block
	store, err := NewStore(code, addrs, block, WithStripeCache(int64(16*2*stripe)))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	names := make([]string, objects)
	data := make([]byte, stripe)
	for o := range names {
		names[o] = fmt.Sprint("o", o)
		rand.New(rand.NewSource(int64(o))).Read(data)
		if _, err := store.WriteFile(ctx, names[o], data); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		for _, name := range names {
			if _, _, err := store.ReadFile(ctx, name, stripe); err != nil {
				t.Fatal(err)
			}
		}
	}
	read() // dial, fill the pools and the cache
	read()
	hits := store.Cache().Stats().Hits
	got := leastAlloc(3, read)
	if h := store.Cache().Stats().Hits - hits; h > 3*objects/2 {
		t.Fatalf("%d hits in %d reads, want mostly misses", h, 3*objects)
	}
	ratio := float64(got) / float64(objects*stripe)
	if ratio > 1.005 {
		t.Errorf("a cold cached read allocates %.4f bytes per byte it returns, want at most 1.005", ratio)
	}
	perRead := testing.AllocsPerRun(3, read) / objects
	if perRead > 3 {
		t.Errorf("a cold cached read allocates %.1f objects, want at most 3", perRead)
	}
	t.Logf("a cold cached read: %.3f B per byte returned, %.1f objects", ratio, perRead)
}
