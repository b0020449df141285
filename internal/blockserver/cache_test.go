package blockserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"carousel/internal/faultnet"
	"carousel/internal/retry"
	"carousel/internal/stripecache"
)

// cacheOpts are tight client timeouts for the fault-injection cache tests:
// a blackholed fetch must fail in hundreds of milliseconds, not the
// default seconds.
func cacheOpts() Options {
	return Options{
		DialTimeout: 500 * time.Millisecond,
		IOTimeout:   300 * time.Millisecond,
		Retry:       retry.Policy{Attempts: 1, Base: 5 * time.Millisecond, Max: 10 * time.Millisecond},
	}
}

// TestStoreCacheWarmReadZeroDials mirrors TestStoreReadReusesConnections
// one level up: with the stripe cache on, the second read of a file is
// served entirely from memory — every stripe a cache hit, zero fresh
// connections, zero bytes fetched — and the bytes are identical.
func TestStoreCacheWarmReadZeroDials(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithStripeCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	const stripes = 8
	size := stripes * 6 * blockSize
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}

	got, stats, err := store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold read: %v", err)
	}
	if stats.CacheHits != 0 {
		t.Errorf("cold read reported %d cache hits, want 0", stats.CacheHits)
	}

	hitsBefore, dials := mCacheHitStripes.Value(), store.Pool().DialCounts()
	got, stats, err = store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("warm read: %v", err)
	}
	if stats.CacheHits != stripes {
		t.Errorf("warm read CacheHits = %d, want %d (every stripe)", stats.CacheHits, stripes)
	}
	if d := mCacheHitStripes.Value() - hitsBefore; d != stripes {
		t.Errorf("store_cache_hit_stripes_total moved by %d for a warm %d-stripe read, want %d", d, stripes, stripes)
	}
	if d := dialsSince(store.Pool(), dials); d != nil {
		t.Errorf("fully-warm read dialed fresh connections: %v, want none", d)
	}
	if stats.BytesFetched != 0 {
		t.Errorf("fully-warm read fetched %d bytes over the network, want 0", stats.BytesFetched)
	}
	if cs := store.Cache().Stats(); cs.Hits < stripes {
		t.Errorf("cache instance hits = %d, want >= %d", cs.Hits, stripes)
	}
}

// TestStoreCacheDisabledMatchesUncached: a store built with no cache
// option has no cache — the default the fault suites rely on — and its
// read path reports no cache activity.
func TestStoreCacheDisabledMatchesUncached(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 4
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	if store.Cache() != nil {
		t.Fatal("a store built with no cache option has a cache configured")
	}
	ctx := context.Background()
	const stripes = 2
	size := stripes * 6 * blockSize
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		rxBefore, parallelBefore := cliBytesRx.Value(), mStripesParallel.Value()
		got, stats, err := store.ReadFile(ctx, "f", size)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if stats.CacheHits != 0 || stats.CoalescedStripes != 0 {
			t.Fatalf("pass %d: uncached store reported cache activity: %+v", pass, *stats)
		}
		// Every pass takes the planned parallel path: k blocks' worth of
		// data prefixes per stripe, 1.0 byte on the wire per byte read.
		if rx := cliBytesRx.Value() - rxBefore; rx != int64(size) {
			t.Errorf("pass %d received %d bytes for %d of data (%.2f B/B), want 1.0", pass, rx, size, float64(rx)/float64(size))
		}
		if d := mStripesParallel.Value() - parallelBefore; d != stripes {
			t.Errorf("pass %d: store_parallel_stripes_total moved by %d, want %d", pass, d, stripes)
		}
	}
}

// TestStoreCacheCoalescedErrorFanOut is the singleflight failure
// satellite: with every server blackholed, N concurrent reads of one cold
// stripe coalesce onto a single fetch whose failure fans out to all of
// them, and no goroutine is left behind.
func TestStoreCacheCoalescedErrorFanOut(t *testing.T) {
	code := mustCode(t)
	_, addrs, injectors := startFaultServers(t, code, 12)
	blockSize := code.BlockAlign() * 4
	// Baseline before the store exists: at the end the store is closed, so
	// every pooled connection (and its server-side handler) must be gone
	// along with any flight or waiter goroutine.
	before := runtime.NumGoroutine()
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, cacheOpts()), WithStripeCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	size := 6 * blockSize // one stripe
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}

	// Blackhole the whole cluster: the coalesced fetch cannot complete.
	for _, in := range injectors {
		in.SetDefault(faultnet.Policy{Blackhole: true})
	}
	t.Cleanup(func() {
		for _, in := range injectors {
			in.SetDefault(faultnet.Policy{})
		}
	})

	const readers = 8
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = store.ReadFile(ctx, "f", size)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("reader %d succeeded against a fully blackholed cluster", i)
		}
	}
	if co := store.Cache().Stats().CoalescedWaiters; co == 0 {
		t.Error("no reader coalesced onto the shared flight; the failure was fetched repeatedly")
	}
	// The failed flight must not poison the key: lift the blackhole and the
	// same read succeeds with a fresh fetch.
	for _, in := range injectors {
		in.SetDefault(faultnet.Policy{})
	}
	got, _, err := store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after lifting the blackhole: %v", err)
	}
	// Leak check: with the store and its pool closed, every reader,
	// flight, pooled connection, and server-side handler goroutine must
	// drain.
	store.Close()
	store.Pool().Close()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked after coalesced failure: %d before, %d after", before, n)
	}
}

// TestStoreCacheWaiterCancelDoesNotPoison: a reader whose context is
// cancelled mid-flight detaches with its own context error while a second
// reader on the same flight still completes, counted as coalesced.
func TestStoreCacheWaiterCancelDoesNotPoison(t *testing.T) {
	code := mustCode(t)
	_, addrs, injectors := startFaultServers(t, code, 12)
	blockSize := code.BlockAlign() * 4
	// Generous IO timeouts: the injected write delays slow the flight down
	// to open a join/cancel window without ever failing the read.
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithStripeCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	size := 6 * blockSize
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}

	// Slow every server down so the flight stays open long enough for a
	// second reader to join and the first to cancel.
	for _, in := range injectors {
		in.SetDefault(faultnet.Policy{DelayWrite: 100 * time.Millisecond})
	}
	t.Cleanup(func() {
		for _, in := range injectors {
			in.SetDefault(faultnet.Policy{})
		}
	})

	coalescedBefore := mCoalescedStripes.Value()
	missesBefore := store.Cache().Stats().Misses
	actx, acancel := context.WithCancel(ctx)
	aerr := make(chan error, 1)
	go func() {
		_, _, err := store.ReadFile(actx, "f", size)
		aerr <- err
	}()
	// B starts once A's miss has opened the flight, so B is its waiter.
	opened := time.Now().Add(2 * time.Second)
	for store.Cache().Stats().Misses == missesBefore && time.Now().Before(opened) {
		time.Sleep(time.Millisecond)
	}
	type read struct {
		got   []byte
		stats *ReadStats
		err   error
	}
	bres := make(chan read, 1)
	go func() {
		got, stats, err := store.ReadFile(ctx, "f", size)
		bres <- read{got, stats, err}
	}()
	// Wait until both readers are on the stripe (one flight, one waiter),
	// then cancel A.
	joined := time.Now().Add(2 * time.Second)
	for store.Cache().Stats().CoalescedWaiters == 0 && time.Now().Before(joined) {
		time.Sleep(2 * time.Millisecond)
	}
	acancel()
	select {
	case err := <-aerr:
		if err == nil {
			// A won the race and finished before the cancel landed — the
			// interesting assertion below (B completes) still holds.
			t.Log("cancelled reader finished before cancellation landed")
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled reader error = %v, want context.Canceled", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled reader did not return")
	}
	select {
	case b := <-bres:
		if b.err != nil {
			t.Fatalf("surviving reader failed after peer cancellation: %v", b.err)
		}
		if !bytes.Equal(b.got, data) {
			t.Fatal("surviving reader got wrong bytes")
		}
		if b.stats.CoalescedStripes != 1 {
			t.Errorf("surviving reader coalesced %d stripes, want 1: it joined the open flight", b.stats.CoalescedStripes)
		}
		if d := mCoalescedStripes.Value() - coalescedBefore; d < 1 {
			t.Errorf("store_coalesced_stripes_total moved by %d, want >= 1 for the reader that coalesced", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("surviving reader never completed")
	}
}

// TestStoreCacheInvalidationRace is the write/read race satellite: reads
// racing a WriteFile may observe torn network state mid-write (true with
// or without a cache), but the moment a WriteFile returns, every read
// must serve exactly the new version — a cached stripe from the prior
// version must be structurally unreachable.
func TestStoreCacheInvalidationRace(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 2
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithStripeCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	size := 2 * 6 * blockSize
	payload := func(version int) []byte {
		d := make([]byte, size)
		for i := range d {
			d[i] = byte(version*131 + i*31)
		}
		return d
	}

	if _, err := store.WriteFile(ctx, "f", payload(0)); err != nil {
		t.Fatal(err)
	}
	for version := 1; version <= 12; version++ {
		// Warm the cache on the previous version so a stale hit is possible
		// if invalidation were broken.
		if _, _, err := store.ReadFile(ctx, "f", size); err != nil {
			t.Fatal(err)
		}
		data := payload(version)
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for g := 0; g < 3; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
						// Mid-write reads race the uploads; their content is
						// indeterminate at the network level, so only the
						// error-free plumbing is exercised here.
						store.ReadFile(ctx, "f", size)
					}
				}
			}()
		}
		_, werr := store.WriteFile(ctx, "f", data)
		close(stop)
		readers.Wait()
		if werr != nil {
			t.Fatalf("version %d write: %v", version, werr)
		}
		for pass := 0; pass < 3; pass++ {
			got, _, err := store.ReadFile(ctx, "f", size)
			if err != nil {
				t.Fatalf("version %d post-write read: %v", version, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("version %d pass %d: read served stale bytes after WriteFile returned", version, pass)
			}
		}
	}
}

// TestStoreCacheChurnKeepsBytes checks buffer reuse by content: readers
// churn single-stripe objects through a cache of about two stripes a
// shard — every miss's flight fetches into the buffer of a stripe the
// cache evicted — while a writer rewrites a few of them, and every
// ReadFile must return one of its object's versions, by CRC. The race
// detector flags a socket read into a buffer a hit or a waiter is still
// copying out of only when nothing orders the copy first, and the stripe
// cache's own atomic counters order most copies; an assembly kernel's
// write (a degraded decode) it never sees. A torn or stale copy shows
// here.
//
// A copy outlasts a fetch only when the thread doing it is descheduled, so
// the test runs more Ps than this host may have cores, 240 KiB stripes,
// and reads half of its reads from the rewritten objects, whose every
// rewrite purges their cached stripes under whatever hit is copying them.
func TestStoreCacheChurnKeepsBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	code := mustCode(t)
	_, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 4096
	stripe := 6 * blockSize
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithStripeCache(int64(16*2*stripe)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	const objects, rewritten, readers, reads = 64, 4, 8, 200
	// A new version is written with its object locked, so no read sees a
	// torn mid-write file; rewrites of the current bytes are not, so their
	// purges race the object's readers.
	type object struct {
		mu   sync.RWMutex
		data []byte
		crcs []uint32
	}
	objs := make([]object, objects)
	write := func(o, version int) {
		obj := &objs[o]
		if version%8 != 0 && obj.data != nil {
			obj.mu.RLock()
			defer obj.mu.RUnlock()
		} else {
			obj.mu.Lock()
			defer obj.mu.Unlock()
			obj.data = make([]byte, stripe-o) // the padding differs too
			rand.New(rand.NewSource(int64(o*1000 + version))).Read(obj.data)
			obj.crcs = append(obj.crcs, Checksum(obj.data))
		}
		if _, err := store.WriteFile(ctx, fmt.Sprint("o", o), obj.data); err != nil {
			t.Errorf("object %d version %d: %v", o, version, err)
		}
	}
	for o := range objs {
		write(o, 0)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for version := 1; ; version++ {
			select {
			case <-stop:
				return
			default:
				write(version%rewritten, version/rewritten)
			}
		}
	}()
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := range reads {
				o := rng.Intn(objects)
				if i%2 == 0 {
					o %= rewritten
				}
				objs[o].mu.RLock()
				got, _, err := store.ReadFile(ctx, fmt.Sprint("o", o), stripe-o)
				ok := err == nil && slices.Contains(objs[o].crcs, Checksum(got))
				objs[o].mu.RUnlock()
				if !ok {
					t.Errorf("object %d: err %v, or bytes of no version it was written with", o, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	if st := store.Cache().Stats(); st.Evictions < objects || st.Hits == 0 {
		t.Errorf("cache stats %+v: want churn (evictions >= %d) and hits", st, objects)
	}
}

// TestStoreCacheFetchOverwritesPoison: the fetch a miss's flight runs, a
// read batch of one, writes every byte of its buffer, which may be a spare
// holding an evicted stripe — here poisoned with 0xFF — on the healthy
// path and the degraded one, padding included.
func TestStoreCacheFetchOverwritesPoison(t *testing.T) {
	code := mustCode(t)
	servers, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 4
	stripe := 6 * blockSize
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	data := make([]byte, 2*stripe-100) // the second stripe is padded
	rand.New(rand.NewSource(44)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	want := append(slices.Clone(data), make([]byte, 100)...)
	for _, path := range []string{"healthy", "degraded"} {
		if path == "degraded" {
			servers[2].Close()
		}
		for st := range 2 {
			buf := bytes.Repeat([]byte{0xFF}, stripe)
			var tally stripecache.Tally
			if _, err := store.readBatch(ctx, "f", st, st+1, buf, &tally, nil); err != nil {
				t.Fatalf("%s stripe %d: %v", path, st, err)
			}
			if !bytes.Equal(buf, want[st*stripe:(st+1)*stripe]) {
				t.Errorf("%s stripe %d: the fetch left bytes of the poisoned buffer", path, st)
			}
			if path == "degraded" && tally.Fallback != 1 {
				t.Errorf("degraded stripe %d: tally %+v, want one fallback stripe", st, tally)
			}
		}
	}
}

// TestStoreCacheCancelledStarterStatsStayPut: the ReadStats a cancelled
// reader got back are not written after its ReadFile returns, though the
// flight it started goes on for the reader that joined it. The flight's
// fetch tallies into the flight, and only a starter that receives the
// result folds that tally into its stats; the reader that stayed is a
// coalesced waiter, whose stats count its coalescing alone.
func TestStoreCacheCancelledStarterStatsStayPut(t *testing.T) {
	code := mustCode(t)
	_, addrs, injectors := startFaultServers(t, code, 12)
	blockSize := code.BlockAlign() * 4
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()), WithStripeCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	size := 6 * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(54)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	// Slow every server down so that the flight stays open while a second
	// reader joins it and the first cancels.
	for _, in := range injectors {
		in.SetDefault(faultnet.Policy{DelayWrite: 100 * time.Millisecond})
	}
	t.Cleanup(func() {
		for _, in := range injectors {
			in.SetDefault(faultnet.Policy{})
		}
	})

	type read struct {
		got    []byte
		stats  *ReadStats
		at     ReadStats // the stats as ReadFile returned them
		err    error
		joined bool
	}
	missesBefore := store.Cache().Stats().Misses
	actx, acancel := context.WithCancel(ctx)
	ares := make(chan read, 1)
	go func() {
		_, stats, err := store.ReadFile(actx, "f", size)
		ares <- read{stats: stats, at: *stats, err: err}
	}()
	for opened := time.Now().Add(2 * time.Second); store.Cache().Stats().Misses == missesBefore && time.Now().Before(opened); {
		time.Sleep(time.Millisecond)
	}
	bres := make(chan read, 1)
	go func() {
		got, stats, err := store.ReadFile(ctx, "f", size)
		bres <- read{got: got, stats: stats, err: err}
	}()
	for joined := time.Now().Add(2 * time.Second); store.Cache().Stats().CoalescedWaiters == 0 && time.Now().Before(joined); {
		time.Sleep(time.Millisecond)
	}
	acancel()
	var a, b read
	select {
	case a = <-ares:
	case <-time.After(3 * time.Second):
		t.Fatal("the cancelled reader did not return")
	}
	if !errors.Is(a.err, context.Canceled) {
		t.Fatalf("cancelled reader: err %v, want context.Canceled (it must leave while the flight runs)", a.err)
	}
	select {
	case b = <-bres:
	case <-time.After(5 * time.Second):
		t.Fatal("the reader that joined never completed")
	}
	if b.err != nil || !bytes.Equal(b.got, data) {
		t.Fatalf("the reader that joined: err %v, identical %v", b.err, bytes.Equal(b.got, data))
	}
	// b has the flight's result, so the fetch is done with whatever it
	// tallied.
	if *a.stats != a.at {
		t.Errorf("the cancelled starter's stats changed after ReadFile returned: %+v, then %+v", a.at, *a.stats)
	}
	if a.at.BytesFetched != 0 || a.at.StripesParallel != 0 || a.at.StripesFallback != 0 {
		t.Errorf("the cancelled starter's stats %+v count a fetch it never received", a.at)
	}
	if b.stats.CoalescedStripes != 1 || b.stats.BytesFetched != 0 {
		t.Errorf("the reader that joined: stats %+v, want one coalesced stripe and no bytes of its own", *b.stats)
	}
}

// TestStoreCacheAbortInterruptsTheRound: a cache flight has no context of
// its own, so when its one reader leaves, the flight's abort must
// interrupt the round it has on the wire at once, as a cancelled context
// interrupts an uncached read's (TestRoundCancelInterruptsEveryExchange).
// Every source is black-holed, the hedge is 5 s and the IO timeout 10 s,
// so nothing else ends the round: within 1 s of the reader's return, each
// source's client is back in the pool without its connection, and once
// the black holes lift the goroutine count is back at its baseline.
func TestStoreCacheAbortInterruptsTheRound(t *testing.T) {
	code := mustCode(t)
	_, addrs, injectors := startFaultServers(t, code, code.N())
	blockSize := code.BlockAlign() * 4
	bg := context.Background()
	data := bytes.Repeat([]byte("abort"), code.K()*blockSize/5)
	writer, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.WriteFile(bg, "f", data); err != nil {
		t.Fatal(err)
	}
	writer.Close() // its connections go: the reader below starts with none
	opts := Options{IOTimeout: 10 * time.Second, Retry: retry.Policy{Attempts: 1}}
	store, err := NewStore(code, addrs, blockSize, withPool(t, opts), WithHedgeDelay(5*time.Second), WithStripeCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	lift := func() {
		for _, in := range injectors {
			in.SetDefault(faultnet.Policy{})
		}
	}
	t.Cleanup(lift)
	base := settledGoroutines() // the writer's connections are gone at the servers too
	for i := range code.P() {
		injectors[i].SetDefault(faultnet.Policy{Blackhole: true})
	}

	ctx, cancel := context.WithCancel(bg)
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	_, _, err = store.ReadFile(ctx, "f", len(data))
	left := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cached read: err %v, want context.Canceled", err)
	}
	for i := range code.P() {
		pe, err := store.pool.peer(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		for len(pe.free) < cap(pe.free) {
			if time.Since(left) > time.Second {
				t.Fatalf("source %d: the aborted flight's round still holds its client 1 s after its reader left (the hedge is 5s, IOTimeout 10s)", i)
			}
			time.Sleep(time.Millisecond)
		}
		parked := make([]*Client, cap(pe.free))
		for k := range parked {
			parked[k] = <-pe.free
			if c := parked[k]; c != nil && c.conn != nil {
				t.Errorf("source %d: a client of the aborted round is parked with its connection", i)
			}
		}
		for _, c := range parked {
			pe.free <- c
		}
	}
	lift()
	waitGoroutinesExactly(t, base)
	got, _, err := store.ReadFile(bg, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the aborted one: err %v, identical %v", err, bytes.Equal(got, data))
	}
}
