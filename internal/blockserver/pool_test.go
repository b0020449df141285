package blockserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"carousel/internal/faultnet"
)

// TestPoolConcurrentCheckoutReturn hammers one peer's slot set from many
// goroutines: the busy+idle total must never exceed PerPeer (proven by the
// dial count), every RPC must succeed, and no goroutine may outlive the
// pool.
func TestPoolConcurrentCheckoutReturn(t *testing.T) {
	_, addrs := startServers(t, nil, 1)
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
	_, addrs := startServers(t, nil, 1)
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
	_, addrs := startServers(t, nil, 1)
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
	srv := NewServer(nil)
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
	srv := NewServer(nil)
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
	_, addrs := startServers(t, nil, 1)
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
	store, err := NewStore(code, addrs, blockSize, WithClientOptions(fastOpts()))
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
	got, stats, err := store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first read: %v", err)
	}
	var total int64
	for _, v := range stats.Dials {
		total += v
	}
	if max := int64(len(addrs) * DefaultPerPeer); total > max {
		t.Errorf("first read dialed %d connections (%v), want <= %d", total, stats.Dials, max)
	}
	got, stats, err = store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("warm read: %v", err)
	}
	if len(stats.Dials) != 0 {
		t.Errorf("warm read dialed fresh connections: %v, want none (all fetches reused parked clients)", stats.Dials)
	}
}
