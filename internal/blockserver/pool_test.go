package blockserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carousel/internal/faultnet"
)

// TestPoolConcurrentCheckoutReturn hammers one peer's slot set from many
// goroutines: the busy+idle total must never exceed PerPeer (proven by the
// dial count), every RPC must succeed, and no goroutine may outlive the
// pool.
func TestPoolConcurrentCheckoutReturn(t *testing.T) {
	_, addrs := startServers(t, mustCode(t), 1)
	base := runtime.NumGoroutine()
	pool := NewPool(addrs, PoolOptions{PerPeer: 4, Client: fastOpts()})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("b-%d-%d", g, i)
				err := pool.WithClient(ctx, addrs[0], func(c *Client) error {
					if err := c.Put(ctx, name, []byte("payload")); err != nil {
						return err
					}
					out, err := c.Get(ctx, name)
					if err != nil {
						return err
					}
					if !bytes.Equal(out, []byte("payload")) {
						return fmt.Errorf("round-trip mismatch for %s", name)
					}
					Recycle(out)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d := pool.DialCounts()[addrs[0]]; d > 4 {
		t.Errorf("dials = %d, want <= PerPeer (4): checkouts leaked past the budget", d)
	}
	pool.Close()
	waitGoroutines(t, base)
}

// TestPoolExhaustionBlocksUntilReturn: with PerPeer 1 a second checkout
// must wait for the first client's return, and give up with the caller's
// context when it never comes.
func TestPoolExhaustionBlocksUntilReturn(t *testing.T) {
	_, addrs := startServers(t, mustCode(t), 1)
	pool := NewPool(addrs, PoolOptions{PerPeer: 1, Client: fastOpts()})
	t.Cleanup(pool.Close)
	ctx := context.Background()
	c, err := pool.Get(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := pool.Get(short, addrs[0]); !errors.Is(err, ErrTimeout) {
		t.Fatalf("checkout from exhausted peer: %v, want ErrTimeout", err)
	}
	done := make(chan *Client, 1)
	go func() {
		c2, err := pool.Get(ctx, addrs[0])
		if err != nil {
			t.Error(err)
		}
		done <- c2
	}()
	pool.Put(c)
	select {
	case c2 := <-done:
		pool.Put(c2)
	case <-time.After(2 * time.Second):
		t.Fatal("blocked checkout did not wake on Put")
	}
}

// TestPoolCloseWhileBusy: Close must fail checkouts blocked on an
// exhausted peer, fail future checkouts, and close (not park) busy clients
// as they come back — with no goroutines left behind.
func TestPoolCloseWhileBusy(t *testing.T) {
	_, addrs := startServers(t, mustCode(t), 1)
	base := runtime.NumGoroutine()
	pool := NewPool(addrs, PoolOptions{PerPeer: 1, Client: fastOpts()})
	ctx := context.Background()
	c, err := pool.Get(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := pool.Get(ctx, addrs[0])
		blocked <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the checkout park on the empty slot set
	pool.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrPoolClosed) {
			t.Errorf("blocked checkout after Close: %v, want ErrPoolClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the blocked checkout")
	}
	pool.Put(c) // the busy client comes back after Close: closed, not parked
	if c.conn != nil {
		t.Error("client returned after Close kept its connection")
	}
	if _, err := pool.Get(ctx, addrs[0]); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("checkout after Close: %v, want ErrPoolClosed", err)
	}
	waitGoroutines(t, base)
}

// TestPoolPoisonedClientRedials: wire corruption poisons a pooled client
// mid-use; the client is still parked, and the next checkout transparently
// redials instead of serving a dead connection.
func TestPoolPoisonedClientRedials(t *testing.T) {
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
	pool := NewPool([]string{addr}, PoolOptions{PerPeer: 1, Client: fastOpts()})
	t.Cleanup(pool.Close)
	ctx := context.Background()
	payload := bytes.Repeat([]byte("p"), 128)
	if err := pool.WithClient(ctx, addr, func(c *Client) error {
		return c.Put(ctx, "b", payload)
	}); err != nil {
		t.Fatal(err)
	}
	in.SetDefault(faultnet.Policy{CorruptWrites: true})
	err = pool.WithClient(ctx, addr, func(c *Client) error {
		_, err := c.Get(ctx, "b")
		return err
	})
	if err == nil {
		t.Fatal("Get over corrupting wire succeeded")
	}
	in.SetDefault(faultnet.Policy{})
	var got []byte
	err = pool.WithClient(ctx, addr, func(c *Client) error {
		out, err := c.Get(ctx, "b")
		got = out
		return err
	})
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get on reused-but-poisoned client: %v", err)
	}
	Recycle(got)
	if counting.accepts.Load() < 2 {
		t.Error("poisoned pooled client was not redialed")
	}
}

// TestPoolStaleIdleDetected: a connection that dies while parked (server
// restart, idle timeout) must be detected at checkout and dropped, so the
// caller's first RPC redials instead of hitting a dead stream.
func TestPoolStaleIdleDetected(t *testing.T) {
	srv := NewServer(mustCode(t))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool([]string{addr}, PoolOptions{PerPeer: 1, Client: fastOpts()})
	t.Cleanup(pool.Close)
	ctx := context.Background()
	if err := pool.WithClient(ctx, addr, func(c *Client) error {
		return c.Put(ctx, "b", []byte("x"))
	}); err != nil {
		t.Fatal(err)
	}
	srv.Close() // kills the parked connection
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := pool.Get(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		stale := c.conn == nil
		pool.Put(c)
		if stale {
			break // the health probe caught it and poisoned the client
		}
		if time.Now().After(deadline) {
			t.Fatal("dead parked connection was never detected as stale")
		}
		time.Sleep(10 * time.Millisecond) // FIN may still be in flight
	}
}

// TestPoolPerPeerDefault: PerPeer has one meaning — zero or negative asks
// for the default budget, never for an unpooled mode — so sequential
// checkouts reuse parked connections and concurrent ones stop at
// DefaultPerPeer.
func TestPoolPerPeerDefault(t *testing.T) {
	_, addrs := startServers(t, mustCode(t), 1)
	ctx := context.Background()
	for _, per := range []int{0, -1} {
		pool := NewPool(addrs, PoolOptions{PerPeer: per, Client: fastOpts()})
		for i := 0; i < 3*DefaultPerPeer; i++ {
			if err := pool.WithClient(ctx, addrs[0], func(c *Client) error {
				return c.Put(ctx, "b", []byte("x"))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if d := pool.DialCounts()[addrs[0]]; d > DefaultPerPeer {
			t.Errorf("PerPeer %d: %d sequential checkouts dialed %d times, want <= %d (parked clients reused)",
				per, 3*DefaultPerPeer, d, DefaultPerPeer)
		}
		held := make([]*Client, DefaultPerPeer)
		for i := range held {
			c, err := pool.Get(ctx, addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			held[i] = c
		}
		short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		if c, err := pool.Get(short, addrs[0]); err == nil {
			t.Errorf("PerPeer %d: checkout %d succeeded, want the budget to stop at DefaultPerPeer", per, DefaultPerPeer+1)
			pool.Put(c)
		}
		cancel()
		for _, c := range held {
			pool.Put(c)
		}
		pool.Close()
	}
}

// TestStoreReadReusesConnections is the dial-accounting satellite: an
// 8-stripe read reports per-peer dial counts in its stats, and a warm read
// (connections parked by the first) dials nothing at all.
func TestStoreReadReusesConnections(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	size := 8 * 6 * blockSize // 8 stripes
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	before := store.Pool().DialCounts()
	got, _, err := store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first read: %v", err)
	}
	dials := dialsSince(store.Pool(), before)
	var total int64
	for _, v := range dials {
		total += v
	}
	if max := int64(len(addrs) * DefaultPerPeer); total > max {
		t.Errorf("first read dialed %d connections (%v), want <= %d", total, dials, max)
	}
	before = store.Pool().DialCounts()
	got, _, err = store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("warm read: %v", err)
	}
	if d := dialsSince(store.Pool(), before); d != nil {
		t.Errorf("warm read dialed fresh connections: %v, want none (all fetches reused parked clients)", d)
	}
}

// dialsSince returns, per peer, the dials p has made since it counted
// before (a DialCounts snapshot): nil when it dialed nobody.
func dialsSince(p *Pool, before map[string]int64) map[string]int64 {
	var d map[string]int64
	for a, n := range p.DialCounts() {
		if n > before[a] {
			if d == nil {
				d = make(map[string]int64)
			}
			d[a] = n - before[a]
		}
	}
	return d
}

// closedAddr returns a loopback address nothing listens on.
func closedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestPoolPeerMemory walks the failure memory's state machine on one peer:
// up until a whole retry policy ends in refused dials; down — answered
// without touching the network — for a window; then half-open, where
// however many callers ask at once exactly one dials, once, and a refusal
// opens the next window; and up again the moment any dial succeeds.
func TestPoolPeerMemory(t *testing.T) {
	addr := closedAddr(t)
	pool := NewPool([]string{addr}, PoolOptions{Client: fastOpts()})
	t.Cleanup(pool.Close)
	ctx := context.Background()
	pe, err := pool.peer(addr)
	if err != nil {
		t.Fatal(err)
	}
	if pool.anyDown() || !pool.reachable(ctx, addr, time.Second) {
		t.Fatal("a peer nobody has dialed is presumed down")
	}
	err = pool.WithClient(ctx, addr, func(c *Client) error { return c.Verify(ctx, "b") })
	if err == nil {
		t.Fatal("an RPC to a closed port succeeded")
	}
	if !pool.anyDown() || pool.reachable(ctx, addr, time.Second) {
		t.Fatal("a peer that refused a whole retry policy is not presumed down")
	}
	if n := pe.probes.Load(); n != 0 {
		t.Fatalf("%d probe dials inside the window, want none", n)
	}

	// The window lapses: of many simultaneous askers, one probes.
	ask := func() (yes int64) {
		var wg sync.WaitGroup
		var n atomic.Int64
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if pool.reachable(ctx, addr, time.Second) {
					n.Add(1)
				}
			}()
		}
		wg.Wait()
		return n.Load()
	}
	pe.downUntil.Store(time.Now().Add(-time.Millisecond).UnixNano())
	if yes := ask(); yes != 0 {
		t.Errorf("%d of 16 askers were told a closed port is reachable", yes)
	}
	if n := pe.probes.Load(); n != 1 {
		t.Errorf("%d probe dials for one lapsed window, want exactly 1", n)
	}
	if until := pe.downUntil.Load(); until <= time.Now().UnixNano() {
		t.Error("a refused probe did not open a new window")
	}
	if d := pool.DialCounts()[addr]; d != 0 {
		t.Errorf("refused dials counted as %d connections", d)
	}

	// The peer returns; the next lapse's probe finds it and parks the
	// connection it made.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot listen on %s again: %v", addr, err)
	}
	srv := NewServer(mustCode(t))
	if _, err := srv.StartListener(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if pool.reachable(ctx, addr, time.Second) {
		t.Error("inside the window the returned peer is already reachable: somebody dialed")
	}
	pe.downUntil.Store(time.Now().Add(-time.Millisecond).UnixNano())
	if yes := ask(); yes < 1 {
		t.Error("nobody was told the returned peer is reachable")
	}
	if pool.anyDown() || !pool.reachable(ctx, addr, time.Second) {
		t.Error("a successful probe did not clear the mark")
	}
	if n, d := pe.probes.Load(), pool.DialCounts()[addr]; n != 2 || d != 1 {
		t.Errorf("%d probes and %d dials, want 2 and 1", n, d)
	}
	parked := 0
	for i := 0; i < cap(pe.free); i++ {
		c := <-pe.free
		if c != nil && c.conn != nil {
			parked++
		}
		pe.free <- c
	}
	if parked != 1 {
		t.Errorf("%d connections parked after the successful probe, want the 1 it dialed", parked)
	}
}

// TestPoolPeerMemoryLearnsFromDialsOnly: an in-band verdict, an I/O
// timeout on an established connection and a dial cut short by its
// caller's context all fail the RPC and leave the peer presumed up; and a
// mark is advice — Get still hands out clients for a marked peer, and a
// dial that succeeds through one clears it.
func TestPoolPeerMemoryLearnsFromDialsOnly(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.NewInjector()
	srv := NewServer(mustCode(t))
	addr, err := srv.StartListener(in.Wrap(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	opts := fastOpts()
	opts.IOTimeout = 50 * time.Millisecond
	dead := closedAddr(t)
	pool := NewPool([]string{addr, dead}, PoolOptions{Client: opts})
	t.Cleanup(pool.Close)
	ctx := context.Background()

	get := func(ctx context.Context, addr string) error {
		return pool.WithClient(ctx, addr, func(c *Client) error {
			b, err := c.Get(ctx, "absent")
			Recycle(b)
			return err
		})
	}
	if err := get(ctx, addr); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of an absent block: %v", err)
	}
	in.SetDefault(faultnet.Policy{Blackhole: true})
	if err := get(ctx, addr); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Get through a black hole: %v", err)
	}
	in.SetDefault(faultnet.Policy{})
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := get(cctx, dead); err == nil {
		t.Fatal("a cancelled Get of a closed port succeeded")
	}
	if pool.anyDown() {
		t.Fatal("a verdict, an I/O timeout or a cancellation marked a peer down")
	}

	if err := get(ctx, dead); err == nil {
		t.Fatal("Get of a closed port succeeded")
	}
	pe, _ := pool.peer(addr)
	pe.unreachable() // as if addr, too, had refused
	if pool.down.Load() != 2 {
		t.Fatalf("%d peers presumed down, want 2", pool.down.Load())
	}
	if err := get(ctx, addr); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get from a marked but live peer: %v: the mark must not refuse it", err)
	}
	for i := 0; i < DefaultPerPeer; i++ { // until a slot that has to dial comes out
		pool.WithClient(ctx, addr, func(c *Client) error { c.poison(); return nil })
		if err := get(ctx, addr); !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	if pool.down.Load() != 1 || !pool.reachable(ctx, addr, time.Second) {
		t.Fatal("a successful dial did not clear the mark")
	}
}

// TestHalfOpenProbeIsHedged: the half-open probe of a peer whose down
// window has lapsed is bounded by the store's hedge. The peer's dial
// blocks until its context ends, so a probe without that bound would hold
// a degraded read until the read's own context ended; with it, the read
// plans around the peer and returns within the hedge plus slack.
func TestHalfOpenProbeIsHedged(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, code.N())
	block := 64 * code.BlockAlign()
	writer, err := NewStore(code, addrs, block)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	data := make([]byte, 4*code.K()*block)
	for i := range data {
		data[i] = byte(i * 7)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := writer.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}

	silent := addrs[2]
	opts := fastOpts()
	opts.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		if addr == silent {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	const hedge = 100 * time.Millisecond
	store, err := NewStore(code, addrs, block, withPool(t, opts), WithHedgeDelay(hedge))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pe, err := store.pool.peer(silent)
	if err != nil {
		t.Fatal(err)
	}
	pe.unreachable()
	pe.downUntil.Store(time.Now().Add(-time.Millisecond).UnixNano()) // the window has lapsed

	t0 := time.Now()
	got, stats, err := store.ReadFile(ctx, "f", len(data))
	elapsed := time.Since(t0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded read: err %v, identical %v", err, bytes.Equal(got, data))
	}
	if n := pe.probes.Load(); n != 1 {
		t.Errorf("%d probe dials, want 1", n)
	}
	if stats.StripesFallback != 4 {
		t.Errorf("%d of 4 stripes planned around the silent peer", stats.StripesFallback)
	}
	if limit := hedge + time.Second; elapsed > limit {
		t.Errorf("the read took %v with a silent peer's probe: want at most %v, the hedge plus slack", elapsed, limit)
	}
}
