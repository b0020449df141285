package blockserver

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
	"carousel/internal/retry"
)

// fastOpts are client options scaled for localhost fault tests: short
// timeouts, two attempts, deterministic jitter.
func fastOpts() Options {
	return Options{
		DialTimeout: 2 * time.Second,
		IOTimeout:   2 * time.Second,
		Retry:       retry.Policy{Attempts: 2, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	}
}

// withPool runs a store over a pool of clients under o, closed when the
// test ends.
func withPool(t testing.TB, o Options) StoreOption {
	p := NewPool(nil, PoolOptions{Client: o})
	t.Cleanup(p.Close)
	return WithPool(p)
}

// startFaultServers spins n servers, each behind its own faultnet
// injector.
func startFaultServers(t *testing.T, code *carousel.Code, n int) ([]*Server, []string, []*faultnet.Injector) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	injectors := make([]*faultnet.Injector, n)
	for i := 0; i < n; i++ {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		in := faultnet.NewInjector()
		srv := NewServer(code)
		addr, err := srv.StartListener(in.Wrap(raw))
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i], injectors[i] = srv, addr, in
		t.Cleanup(func() { srv.Close() })
	}
	return servers, addrs, injectors
}

// waitGoroutines polls until the goroutine count returns to the baseline,
// failing with a stack dump on leak.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d goroutines > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// settledGoroutines waits until the goroutine count has held still for
// 100 ms, for at most 5 s, and returns it: a baseline taken while closed
// connections' goroutines are still ending would count them.
func settledGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for deadline := since.Add(5 * time.Second); time.Now().Before(deadline) && time.Since(since) < 100*time.Millisecond; {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// waitGoroutinesExactly waits up to 5 s for the goroutine count to read
// exactly base. More is a leak; fewer is a goroutine the baseline counted
// that has since ended, which could stand in for a leaked one.
func waitGoroutinesExactly(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if runtime.NumGoroutine() == base {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("%d goroutines, want exactly the baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestFaultMatrixHedgedRead is the acceptance matrix for the hedged read
// path: with carousel(14,10,10,12) over real TCP servers, killing one
// server mid-read and delaying another beyond the hedge deadline must
// still return byte-identical content by re-planning around both, within
// the overall deadline and without leaking goroutines.
func TestFaultMatrixHedgedRead(t *testing.T) {
	code, err := carousel.New(14, 10, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 16
	size := 2*10*blockSize + 37 // two full stripes plus change
	data := make([]byte, size)
	rand.New(rand.NewSource(11)).Read(data)

	cases := []struct {
		name       string
		kill, slow int
		slowPolicy faultnet.Policy
		wantPath   string
	}{
		{"kill-data+delay-data", 3, 7, faultnet.Policy{DelayWrite: 250 * time.Millisecond}, "fallback"},
		{"kill-data+blackhole-data", 0, 11, faultnet.Policy{Blackhole: true}, "fallback"},
		{"kill-parity+delay-data", 12, 5, faultnet.Policy{DelayWrite: 250 * time.Millisecond}, "fallback"},
		{"kill-parity+delay-parity", 13, 12, faultnet.Policy{DelayWrite: 250 * time.Millisecond}, "parallel"},
		{"kill-data+partition-data", 9, 2, faultnet.Policy{RejectConn: true}, "fallback"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			servers, addrs, injectors := startFaultServers(t, code, 14)
			store, err := NewStore(code, addrs, blockSize,
				withPool(t, fastOpts()), WithHedgeDelay(150*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := store.WriteFile(ctx, "f", data); err != nil {
				t.Fatal(err)
			}

			base := runtime.NumGoroutine()
			servers[tc.kill].Close()
			injectors[tc.slow].SetDefault(tc.slowPolicy)

			// The overall deadline the acceptance criterion requires: the
			// read must finish despite the dead and slow servers.
			rctx, cancel := context.WithTimeout(ctx, 8*time.Second)
			defer cancel()
			start := time.Now()
			got, stats, err := store.ReadFile(rctx, "f", size)
			if err != nil {
				t.Fatalf("read with server %d dead and %d slow: %v (after %v)", tc.kill, tc.slow, err, time.Since(start))
			}
			if !bytes.Equal(got, data) {
				t.Fatal("fault-path read returned different bytes")
			}
			if rctx.Err() != nil {
				t.Fatal("read overran the overall deadline")
			}
			if p := stats.Path(); p != tc.wantPath {
				t.Errorf("read path = %q (stats %+v), want %q", p, *stats, tc.wantPath)
			}
			// Lift the fault so the slow server's in-flight handlers drain,
			// close the store so the pool releases its parked connections
			// (each warm connection keeps one server handler goroutine alive
			// in-process), then require every goroutine to be gone.
			injectors[tc.slow].SetDefault(faultnet.Policy{})
			store.Close()
			waitGoroutines(t, base)
		})
	}
}

// deleteBlock removes one block from its server, as a lost write would.
func deleteBlock(t *testing.T, addr, name string) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Delete(context.Background(), name); err != nil {
		t.Fatal(err)
	}
}

// TestFaultMatrixRepair exercises faults × repair: a repair must succeed by
// promoting spare helpers when contacted helpers are dead, straggling, or
// answer with an in-band verdict for their block, keeping optimal traffic
// (d chunks) from the helpers that actually served. Every faulted helper
// is among the first d candidates, so each costs one spare; a timing fault
// may cost more on a loaded host, an in-band verdict exactly one.
func TestFaultMatrixRepair(t *testing.T) {
	code, err := carousel.New(14, 10, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 16
	data := make([]byte, 10*blockSize)
	rand.New(rand.NewSource(12)).Read(data)

	cases := []struct {
		name   string
		fault  func(t *testing.T, servers []*Server, addrs []string, injectors []*faultnet.Injector)
		spares int64
		exact  bool
	}{
		{"kill-helper+delay-helper", func(t *testing.T, servers []*Server, _ []string, injectors []*faultnet.Injector) {
			servers[1].Close()
			injectors[4].SetDefault(faultnet.Policy{DelayWrite: 250 * time.Millisecond})
		}, 2, false},
		{"kill-first-helper+blackhole-helper", func(t *testing.T, servers []*Server, _ []string, injectors []*faultnet.Injector) {
			servers[0].Close()
			injectors[2].SetDefault(faultnet.Policy{Blackhole: true})
		}, 2, false},
		{"corrupt-helper-block", func(t *testing.T, servers []*Server, _ []string, _ []*faultnet.Injector) {
			if err := servers[3].CorruptBlock(BlockName("f", 0, 3), 5); err != nil {
				t.Fatal(err)
			}
		}, 1, true},
		{"missing-helper-block", func(t *testing.T, _ []*Server, addrs []string, _ []*faultnet.Injector) {
			deleteBlock(t, addrs[8], BlockName("f", 0, 8))
		}, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			servers, addrs, injectors := startFaultServers(t, code, 14)
			store, err := NewStore(code, addrs, blockSize,
				withPool(t, fastOpts()), WithHedgeDelay(150*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := store.WriteFile(ctx, "f", data); err != nil {
				t.Fatal(err)
			}
			const failed = 6
			deleteBlock(t, addrs[failed], BlockName("f", 0, failed))

			base := runtime.NumGoroutine()
			tc.fault(t, servers, addrs, injectors)

			rctx, cancel := context.WithTimeout(ctx, 8*time.Second)
			defer cancel()
			promoted0 := mSparePromotions.Value()
			traffic, err := store.Repair(rctx, "f", 0, failed)
			if err != nil {
				t.Fatalf("repair: %v", err)
			}
			spares := mSparePromotions.Value() - promoted0
			if spares < tc.spares || (tc.exact && spares != tc.spares) {
				t.Errorf("store_spare_promotions_total moved by %d, want %d (one per faulted helper; exact %v)", spares, tc.spares, tc.exact)
			}
			if want := code.D() * code.HelperChunkSize(blockSize); traffic != want {
				t.Errorf("repair traffic = %d, want optimal %d", traffic, want)
			}
			for _, in := range injectors {
				in.SetDefault(faultnet.Policy{})
			}
			got, _, err := store.ReadFile(ctx, "f", len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read after fault-path repair: %v", err)
			}
			// Close the store and the newcomer, whose pool parks its
			// helper connections until it closes, so pooled connections (and
			// their in-process server handler goroutines) are released before
			// the leak check; the newcomer's accept loop goes with it.
			store.Close()
			servers[failed].Close()
			waitGoroutines(t, base-1)
		})
	}
}

// TestCorruptBlockDetectedExcludedRepaired is the corruption leg of the
// acceptance matrix: a corrupted block is caught by checksum at read time,
// excluded from the decode (the read still returns correct bytes), then
// found and regenerated by a scrub pass.
func TestCorruptBlockDetectedExcludedRepaired(t *testing.T) {
	code, err := carousel.New(14, 10, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 16
	size := 10*blockSize + 101
	data := make([]byte, size)
	rand.New(rand.NewSource(13)).Read(data)

	servers, addrs, _ := startFaultServers(t, code, 14)
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithHedgeDelay(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	const bad = 4
	if err := servers[bad].CorruptBlock(BlockName("f", 0, bad), 3); err != nil {
		t.Fatal(err)
	}

	// The read detects the corruption, excludes the block, and still
	// returns the original bytes.
	got, stats, err := store.ReadFile(ctx, "f", size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read with corrupt block returned different bytes")
	}
	if stats.CorruptSources == 0 {
		t.Errorf("corruption was not detected by checksum (stats %+v)", *stats)
	}
	if stats.StripesFallback == 0 {
		t.Error("corrupt stripe was not served via the fallback decode")
	}

	// The client surface also sees a typed verdict.
	c, err := Dial(addrs[bad])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, BlockName("f", 0, bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of corrupt block: %v, want ErrCorrupt", err)
	}
	if err := c.Verify(ctx, BlockName("f", 0, bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify of corrupt block: %v, want ErrCorrupt", err)
	}
	c.Close()

	// Scrub finds exactly the corrupted block and regenerates it.
	rep, err := store.Scrub(ctx, "f", size, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != (BlockRef{Stripe: 0, Block: bad}) {
		t.Fatalf("scrub found %+v, want exactly stripe 0 block %d", rep.Corrupt, bad)
	}
	if len(rep.Repaired) != 1 {
		t.Fatalf("scrub repaired %+v, want one block", rep.Repaired)
	}

	// After repair, the block verifies and the read is fully parallel again.
	c2, err := Dial(addrs[bad])
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Verify(ctx, BlockName("f", 0, bad)); err != nil {
		t.Fatalf("Verify after scrub repair: %v", err)
	}
	c2.Close()
	got, stats, err = store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after scrub repair: %v", err)
	}
	if stats.Path() != "parallel" {
		t.Errorf("post-repair read path = %q, want parallel", stats.Path())
	}
}

// TestReadFailsFastWhenTooFewSurvivors: with more than n-k servers dead
// the read must return a typed error quickly rather than hang.
func TestReadFailsFastWhenTooFewSurvivors(t *testing.T) {
	code := mustCode(t) // carousel(12,6,10,12)
	servers, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithHedgeDelay(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, 6*blockSize)
	rand.New(rand.NewSource(14)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ { // 7 > n-k = 6 dead
		servers[i].Close()
	}
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	_, _, err = store.ReadFile(rctx, "f", len(data))
	if !errors.Is(err, ErrTooFewSurvivors) {
		t.Fatalf("read with 7 dead servers: %v, want ErrTooFewSurvivors", err)
	}
	if rctx.Err() != nil {
		t.Fatal("unavailability verdict overran the deadline: not fail-fast")
	}
}

// TestRepairFailsFastWhenTooFewHelpers: with fewer than d reachable
// helpers, repair returns the typed error.
func TestRepairFailsFastWhenTooFewHelpers(t *testing.T) {
	code := mustCode(t)
	servers, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, 6*blockSize)
	rand.New(rand.NewSource(15)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	// d = 10 helpers needed; kill 3 others so only 8 remain.
	servers[1].Close()
	servers[2].Close()
	servers[3].Close()
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	_, err = store.Repair(rctx, "f", 0, 0)
	if !errors.Is(err, ErrTooFewSurvivors) {
		t.Fatalf("repair with 8 of 10 helpers: %v, want ErrTooFewSurvivors", err)
	}
}

// TestServerCloseCancelsInflightConns: Close must stop accepting, cancel
// handler connections (even ones blocked mid-request on an idle client),
// and leave no goroutines behind — the shutdown-ordering fix.
func TestServerCloseCancelsInflightConns(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := NewServer(mustCode(t))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	// Leave one handler blocked mid-request: op byte sent, name never
	// following.
	if _, err := conns[0].Write([]byte{opRange}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handlers park in their reads

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung on in-flight connections")
	}
	for _, c := range conns {
		c.Close()
	}
	waitGoroutines(t, base)
}

// countingListener counts accepted connections, to observe redials.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestClientPoisoningAndRedial: in-band errors keep the connection; wire
// corruption poisons it, and the next call transparently redials.
func TestClientPoisoningAndRedial(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingListener{Listener: raw}
	in := faultnet.NewInjector()
	srv := NewServer(mustCode(t))
	addr, err := srv.StartListener(in.Wrap(counting))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	ctx := context.Background()
	c, err := DialContext(ctx, addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("p"), 256)
	if err := c.Put(ctx, "b", payload); err != nil {
		t.Fatal(err)
	}
	// In-band errors do not redial: still one connection.
	if _, err := c.Get(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	if got := counting.accepts.Load(); got != 1 {
		t.Fatalf("accepts after in-band error = %d, want 1 (no redial)", got)
	}
	// Corrupt the wire: the exchange fails after retries and the
	// connection is marked dead.
	in.SetDefault(faultnet.Policy{CorruptWrites: true})
	retries0 := cliRetries.Value()
	if _, err := c.Get(ctx, "b"); err == nil {
		t.Fatal("Get over corrupting wire succeeded")
	}
	if got, want := cliRetries.Value()-retries0, int64(fastOpts().Retry.Attempts-1); got != want {
		t.Fatalf("blockserver_client_retries_total moved by %d, want %d (every attempt but the first)", got, want)
	}
	in.SetDefault(faultnet.Policy{})
	// The next call redials and succeeds on the same Client.
	got, err := c.Get(ctx, "b")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after poisoning: %v", err)
	}
	if counting.accepts.Load() < 2 {
		t.Fatal("poisoned connection was not redialed")
	}
}

// TestClientTimeoutTyped: a blackholed server yields ErrTimeout within the
// context budget.
func TestClientTimeoutTyped(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.NewInjector()
	in.SetDefault(faultnet.Policy{Blackhole: true})
	srv := NewServer(mustCode(t))
	addr, err := srv.StartListener(in.Wrap(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c := NewClient(addr, Options{
		DialTimeout: time.Second,
		IOTimeout:   100 * time.Millisecond,
		Retry:       retry.Policy{Attempts: 1},
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := c.Get(ctx, "b"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Get on blackholed server: %v, want ErrTimeout", err)
	}
	if time.Since(start) > 1500*time.Millisecond {
		t.Fatal("timeout verdict was not fail-fast")
	}
}

// TestDegradedReadAB is the EXPERIMENTS.md recipe: an A/B of read latency
// with and without an injected straggler. A = all 14 servers healthy
// (parallel path). B = one data server's writes delayed well past the
// hedge deadline (struck and planned around). The hedge must bound B's
// latency by roughly hedge + replacement-fetch time instead of the
// straggler's delay, and both reads must be byte-identical.
func TestDegradedReadAB(t *testing.T) {
	code, err := carousel.New(14, 10, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 16
	size := 2 * 10 * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(17)).Read(data)

	_, addrs, injectors := startFaultServers(t, code, 14)
	const hedge = 100 * time.Millisecond
	const stragglerDelay = 600 * time.Millisecond
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithHedgeDelay(hedge))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := store.WriteFile(ctx, "ab", data); err != nil {
		t.Fatal(err)
	}

	// A: healthy.
	startA := time.Now()
	got, stats, err := store.ReadFile(ctx, "ab", size)
	latA := time.Since(startA)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("healthy read: %v", err)
	}
	if stats.Path() != "parallel" {
		t.Fatalf("healthy read path = %s, want parallel", stats.Path())
	}

	// B: one data source delayed far beyond the hedge deadline.
	injectors[4].SetDefault(faultnet.Policy{DelayWrite: stragglerDelay})
	startB := time.Now()
	got, stats, err = store.ReadFile(ctx, "ab", size)
	latB := time.Since(startB)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("straggler read: %v", err)
	}
	if stats.StripesFallback == 0 {
		t.Fatalf("straggler read path = %s, want fallback stripes", stats.Path())
	}
	injectors[4].SetDefault(faultnet.Policy{})

	// The re-plan must beat waiting out the straggler on every
	// stripe: 2 stripes x 600 ms of serialized delay would exceed 1.2 s.
	if latB >= 2*stragglerDelay {
		t.Fatalf("hedged read took %v, straggler delay not cut off", latB)
	}
	t.Logf("A (healthy, parallel): %v; B (600ms straggler, hedged and re-planned): %v", latA, latB)
}

// plannedCluster is a written file on a cluster whose servers' transmit
// counters tell what each source was asked for.
type plannedCluster struct {
	code      *carousel.Code
	servers   []*Server
	addrs     []string
	injectors []*faultnet.Injector
	store     *Store
	blockSize int
	stripes   int
	data      []byte
}

func newPlannedCluster(t *testing.T, n, k, d, p, stripes int, opts ...StoreOption) *plannedCluster {
	t.Helper()
	code, err := carousel.New(n, k, d, p)
	if err != nil {
		t.Fatal(err)
	}
	pc := &plannedCluster{code: code, blockSize: code.BlockAlign() * 16, stripes: stripes}
	pc.servers, pc.addrs, pc.injectors = startFaultServers(t, code, n)
	pc.data = make([]byte, stripes*k*pc.blockSize)
	rand.New(rand.NewSource(int64(1000*n + 10*p + stripes))).Read(pc.data)
	opts = append([]StoreOption{withPool(t, fastOpts()), WithHedgeDelay(150 * time.Millisecond)}, opts...)
	if pc.store, err = NewStore(code, pc.addrs, pc.blockSize, opts...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.store.Close)
	if _, err := pc.store.WriteFile(context.Background(), "f", pc.data); err != nil {
		t.Fatal(err)
	}
	return pc
}

// read is one ReadFile, checked byte for byte, with what every server
// sent meanwhile.
func (pc *plannedCluster) read(t *testing.T) (*ReadStats, []int64) {
	t.Helper()
	before := make([]int64, len(pc.servers))
	for i, s := range pc.servers {
		before[i] = s.bytesTx.Load()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, stats, err := pc.store.ReadFile(ctx, "f", len(pc.data))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, pc.data) {
		t.Fatal("read returned different bytes")
	}
	sent := make([]int64, len(pc.servers))
	for i, s := range pc.servers {
		sent[i] = s.bytesTx.Load() - before[i]
	}
	return stats, sent
}

// planBytes is what PlanRead says a read of the whole file takes from
// each block with the given servers down.
func (pc *plannedCluster) planBytes(t *testing.T, down ...int) []int64 {
	t.Helper()
	avail := make([]bool, pc.code.N())
	for i := range avail {
		avail[i] = !slices.Contains(down, i)
	}
	plan, err := pc.code.PlanRead(avail, pc.blockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, pc.code.N())
	for _, b := range plan.Direct {
		want[b] += int64(pc.stripes * plan.BytesPerSource)
	}
	for _, r := range plan.Ranges {
		want[r.Block] += int64(pc.stripes * r.Len)
	}
	return want
}

// TestPlannedDegradedRead is the paper's one-failure column on sockets,
// and its neighbours: once the pool remembers who is down, every stripe
// executes PlanRead's plan for that availability — the same bytes from the
// same sources, k blocks' worth in all, no dial, no retry — whether the
// plan is the Section VII replacement (one spare, both spares), the
// parity-unit patch (p = n, or more losses than spares, up to the n-k
// limit; carousel's TestPlanReadNeverNeedsWholeBlocks shows no pattern
// needs more), and no goroutine outlives the reads with peers marked down.
func TestPlannedDegradedRead(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, k, d, p int
		down       []int
	}{
		{"one source refused: the replacement", 12, 6, 10, 10, []int{2}},
		{"two sources refused: both spares", 12, 6, 10, 10, []int{2, 5}},
		{"a source and a spare refused", 12, 6, 10, 10, []int{7, 10}},
		{"p = n, no spares: the patch", 12, 6, 10, 12, []int{3}},
		{"more refused than spares: the patch", 12, 6, 10, 10, []int{0, 1, 2}},
		{"n-k refused: the patch from what is left", 12, 6, 10, 10, []int{0, 3, 4, 8, 9, 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const stripes = 6
			pc := newPlannedCluster(t, tc.n, tc.k, tc.d, tc.p, stripes)
			base := runtime.NumGoroutine()
			for _, i := range tc.down {
				pc.servers[i].Close()
			}
			dataDown := 0
			for _, i := range tc.down {
				if i < tc.p {
					dataDown++
				}
			}
			// The first read finds the dead peers the slow way; the memory
			// is for everyone after it.
			stats, _ := pc.read(t)
			if dataDown > 0 && stats.StripesFallback != stripes {
				t.Errorf("discovering read: %d of %d stripes degraded", stats.StripesFallback, stripes)
			}
			for _, i := range tc.down {
				if i < tc.p && pc.store.pool.reachable(context.Background(), pc.addrs[i], time.Second) {
					t.Errorf("server %d refused a whole retry policy and is not presumed down", i)
				}
			}

			dials := pc.store.pool.DialCounts()
			stats, sent := pc.read(t)
			want := pc.planBytes(t, tc.down...)
			var total int64
			for i := range sent {
				if sent[i] != want[i] {
					t.Errorf("server %d sent %d bytes, PlanRead says %d", i, sent[i], want[i])
				}
				total += want[i]
			}
			if size := int64(len(pc.data)); total != size || stats.BytesFetched != size {
				t.Errorf("planned read fetched %d bytes (plan: %d), want exactly the file's %d", stats.BytesFetched, total, size)
			}
			if d := dialsSince(pc.store.pool, dials); d != nil {
				t.Errorf("planned read dialed %v, want nobody", d)
			}
			if dataDown > 0 && (stats.StripesFallback != stripes || stats.StripesParallel != 0) {
				t.Errorf("planned read: %d fallback, %d parallel stripes; want all %d counted as fallback", stats.StripesFallback, stats.StripesParallel, stripes)
			}
			touched := 0
			for _, b := range sent {
				if b > 0 {
					touched++
				}
			}
			if len(tc.down) == 1 && tc.p < tc.n && touched != tc.p {
				t.Errorf("planned read touched %d peers, want p = %d (p-1 direct and the replacement)", touched, tc.p)
			}
			pc.store.Close()
			waitGoroutines(t, base)
		})
	}
}

// TestStrikesAreLocalToTheStripe: a block that is missing or corrupt on a
// live server, and a source held past the hedge deadline, cost their own
// stripe a re-plan — every prefix that landed is kept, so no other source
// is asked twice — and nothing more: the peer is not presumed down, and the
// next stripe and the next read ask it again.
func TestStrikesAreLocalToTheStripe(t *testing.T) {
	const stripes = 4
	pc := newPlannedCluster(t, 12, 6, 10, 10, stripes)
	per := int64(pc.code.DataBytesPerBlock(0, pc.blockSize))
	ctx := context.Background()

	// Stripe 1 loses block 3, stripe 2's block 4 rots; servers 3 and 4 stay up.
	c, err := Dial(pc.addrs[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, BlockName("f", 1, 3)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := pc.servers[4].CorruptBlock(BlockName("f", 2, 4), 5); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		stats, sent := pc.read(t)
		if stats.StripesFallback != 2 || stats.StripesParallel != stripes-2 {
			t.Errorf("read %d: %d fallback and %d parallel stripes, want 2 and %d", round, stats.StripesFallback, stats.StripesParallel, stripes-2)
		}
		if stats.CorruptSources != 1 {
			t.Errorf("read %d: %d corrupt verdicts, want 1", round, stats.CorruptSources)
		}
		for i, b := range sent {
			want := stripes * per
			switch i {
			case 3:
				want = (stripes - 1) * per // asked every stripe, one answer a verdict
			case 4:
				// Asked every stripe: the rotten range crosses the wire
				// under the CRC it was stored with, and its reader strikes it.
			case 10:
				want = 2 * per // the replacement, for the two struck stripes only
			case 11:
				want = 0
			}
			if b != want {
				t.Errorf("read %d: server %d sent %d bytes, want %d", round, i, b, want)
			}
		}
		if want := int64(len(pc.data)); stats.BytesFetched != want {
			t.Errorf("read %d: fetched %d bytes, want %d: a landed prefix was fetched again", round, stats.BytesFetched, want)
		}
		if pc.store.pool.anyDown() {
			t.Fatalf("read %d: a live server serving a bad block is presumed down", round)
		}
	}

	// A straggler: server 6 answers, but only after the hedge deadline.
	pc.injectors[6].SetDefault(faultnet.Policy{DelayWrite: 400 * time.Millisecond})
	stats, sent := pc.read(t)
	if stats.StripesFallback != stripes {
		t.Errorf("straggler read: %d of %d stripes re-planned", stats.StripesFallback, stripes)
	}
	for i, b := range sent {
		if i != 3 && i != 4 && i != 6 && i < 10 && b != stripes*per {
			t.Errorf("straggler read: server %d sent %d bytes, want %d: a landed prefix was fetched again", i, b, stripes*per)
		}
	}
	if pc.store.pool.anyDown() {
		t.Fatal("a straggler is presumed down")
	}
	pc.injectors[6].SetDefault(faultnet.Policy{})
	if stats, _ = pc.read(t); stats.StripesFallback != 2 {
		t.Errorf("with the straggler back, %d stripes re-planned, want only the 2 with bad blocks", stats.StripesFallback)
	}
}

// TestSlowEverywhereIsReadSlowly: when every source is past the hedge
// deadline there is nobody to re-plan onto, so the stripe forgives its
// stragglers and runs its plan once more with only the caller's context
// bounding the wait. A cluster that is slow everywhere is read slowly —
// k blocks' worth of bytes, as always — and nobody is presumed down; with
// one data-bearing peer closed as well, that unhedged round runs the
// replacement plan around it.
func TestSlowEverywhereIsReadSlowly(t *testing.T) {
	t.Run("all slow: the healthy plan, unhedged", func(t *testing.T) {
		pc := newPlannedCluster(t, 12, 6, 10, 10, 1, WithHedgeDelay(40*time.Millisecond))
		for i, in := range pc.injectors {
			in.SetDefault(faultnet.Policy{DelayWrite: time.Duration(80+20*i) * time.Millisecond})
		}
		stats, _ := pc.read(t)
		if stats.StripesParallel != 1 || stats.StripesFallback != 0 {
			t.Errorf("slow-everywhere read: %+v, want the stripe served by its unhedged healthy plan", *stats)
		}
		if want := int64(pc.code.K() * pc.blockSize); stats.BytesFetched != want {
			t.Errorf("fetched %d bytes, want k blocks' worth = %d", stats.BytesFetched, want)
		}
		if pc.store.pool.anyDown() {
			t.Error("stragglers are presumed down")
		}
	})
	t.Run("one closed, the rest slow: the replacement plan, unhedged", func(t *testing.T) {
		pc := newPlannedCluster(t, 12, 6, 10, 10, 1, WithHedgeDelay(40*time.Millisecond))
		for i, in := range pc.injectors {
			in.SetDefault(faultnet.Policy{DelayWrite: time.Duration(80+20*i) * time.Millisecond})
		}
		pc.servers[2].Close()
		stats, sent := pc.read(t)
		if stats.StripesFallback != 1 || stats.StripesParallel != 0 {
			t.Errorf("read: %+v, want the stripe served by the replacement plan", *stats)
		}
		if size := int64(len(pc.data)); stats.BytesFetched != size {
			t.Errorf("fetched %d bytes, want exactly the file's %d", stats.BytesFetched, size)
		}
		if sent[2] != 0 {
			t.Errorf("the closed server sent %d bytes", sent[2])
		}
	})
}

// TestSlowEverywhereIsRepairedSlowly: a repair runs the read's stripe loop,
// so when every helper is past the hedge deadline and no spare is left to
// promote, it forgives its stragglers and waits for d of them unhedged,
// instead of failing with ErrTooFewSurvivors. The rebuild still moves
// exactly d chunks, the file reads back identical, and no goroutine
// outlives the slow fetches: the count returns to exactly its baseline,
// which is taken with the write's connections closed, once the repair's
// and the newcomer's are closed too, so no closed connection can stand in
// for a leaked goroutine.
func TestSlowEverywhereIsRepairedSlowly(t *testing.T) {
	pc := newPlannedCluster(t, 12, 6, 10, 10, 1)
	const failed = 3
	deleteBlock(t, pc.addrs[failed], BlockName("f", 0, failed))
	pc.store.Pool().Close() // the write's connections
	pool := NewPool(nil, PoolOptions{Client: fastOpts()})
	store, err := NewStore(pc.code, pc.addrs, pc.blockSize, WithPool(pool), WithHedgeDelay(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	pc.store = store
	base := settledGoroutines()
	for i, in := range pc.injectors {
		in.SetDefault(faultnet.Policy{DelayWrite: time.Duration(80+20*i) * time.Millisecond})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	traffic, err := pc.store.Repair(ctx, "f", 0, failed)
	if err != nil {
		t.Fatalf("repair with every helper slow: %v", err)
	}
	if want := pc.code.D() * pc.code.HelperChunkSize(pc.blockSize); traffic != want {
		t.Errorf("repair traffic = %d, want d chunks = %d", traffic, want)
	}
	for _, in := range pc.injectors {
		in.SetDefault(faultnet.Policy{})
	}
	pc.read(t)
	store.Close()
	pool.Close()
	pc.servers[failed].pool.Close() // the newcomer's helper connections
	waitGoroutinesExactly(t, base)
}

// TestCancelledReadMarksNobody: a read cancelled while its fetches are
// still dialing and backing off leaves the peer memory untouched — the
// caller's patience, not the peer, ended those dials.
func TestCancelledReadMarksNobody(t *testing.T) {
	slowRetry := fastOpts()
	slowRetry.Retry = retry.Policy{Attempts: 3, Base: 300 * time.Millisecond, Max: 300 * time.Millisecond}
	pc := newPlannedCluster(t, 12, 6, 10, 10, 4, withPool(t, slowRetry))
	pc.servers[2].Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	if _, _, err := pc.store.ReadFile(ctx, "f", len(pc.data)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: %v, want context.Canceled", err)
	}
	if pc.store.pool.anyDown() {
		t.Fatal("a cancelled read marked a peer down")
	}
}

// TestReturnedPeerIsUsedAgain: while a refused peer stays down the pool
// dials it at most once a window (the half-open probe, which a refusal
// answers), and once it is back on its address a read is fully parallel
// again within a window.
func TestReturnedPeerIsUsedAgain(t *testing.T) {
	const stripes, gone = 4, 2
	pc := newPlannedCluster(t, 12, 6, 10, 10, stripes)
	ctx := context.Background()
	blocks := make([][]byte, stripes)
	c, err := Dial(pc.addrs[gone])
	if err != nil {
		t.Fatal(err)
	}
	for st := range blocks {
		if blocks[st], err = c.Get(ctx, BlockName("f", st, gone)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	pc.servers[gone].Close()
	pc.read(t) // finds it dead
	pe, err := pc.store.pool.peer(pc.addrs[gone])
	if err != nil {
		t.Fatal(err)
	}
	dials := pc.store.pool.DialCounts()[pc.addrs[gone]]

	start := time.Now()
	for time.Since(start) < peerDownWindow*5/4 {
		before := pc.store.pool.DialCounts()
		if stats, _ := pc.read(t); stats.StripesFallback != stripes || dialsSince(pc.store.pool, before) != nil {
			t.Fatalf("read with the peer down: %+v, dials %v", *stats, dialsSince(pc.store.pool, before))
		}
	}
	if n := pe.probes.Load(); n < 1 || n > 2 {
		t.Errorf("%d probe dials in 1.25 windows of back-to-back reads, want 1 or 2", n)
	}
	if d := pc.store.pool.DialCounts()[pc.addrs[gone]]; d != dials {
		t.Errorf("a refused probe counted as %d dials", d-dials)
	}

	srv := NewServer(pc.code)
	if _, err := srv.Start(pc.addrs[gone]); err != nil {
		t.Skipf("cannot listen on %s again: %v", pc.addrs[gone], err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err = Dial(pc.addrs[gone])
	if err != nil {
		t.Fatal(err)
	}
	for st, b := range blocks {
		if err := c.Put(ctx, BlockName("f", st, gone), b); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	back := time.Now()
	for {
		stats, _ := pc.read(t)
		if stats.StripesParallel == stripes {
			break
		}
		if time.Since(back) > peerDownWindow+500*time.Millisecond {
			t.Fatalf("%v after the peer returned, a read is still %+v", time.Since(back), *stats)
		}
	}
	if pc.store.pool.anyDown() {
		t.Error("the returned peer is still presumed down")
	}
	if d := pc.store.pool.DialCounts()[pc.addrs[gone]]; d <= dials {
		t.Error("the returned peer was never dialed")
	}
}
