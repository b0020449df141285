package blockserver

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"carousel/internal/faultnet"
	"carousel/internal/retry"
)

// startCancelServer serves one peer behind a faultnet injector and a
// counting listener, with a one-client pool over it: every checkout hands
// back the same Client.
func startCancelServer(t *testing.T, opts Options) (*Pool, string, *faultnet.Injector, *countingListener) {
	t.Helper()
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
	pool := NewPool([]string{addr}, PoolOptions{PerPeer: 1, Client: opts})
	t.Cleanup(pool.Close)
	return pool, addr, in, counting
}

// TestCancelInterruptsExchange is the promise of DESIGN §7: canceling an
// exchange's context interrupts its in-flight socket read promptly, long
// before the I/O deadline, and the client it ran on serves its next call
// after redialing.
func TestCancelInterruptsExchange(t *testing.T) {
	pool, addr, in, counting := startCancelServer(t, Options{IOTimeout: 10 * time.Second})
	bg := context.Background()
	payload := bytes.Repeat([]byte("c"), 256)
	c, err := pool.Get(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bg, "b", payload); err != nil {
		t.Fatal(err)
	}

	// The server takes the request and never answers.
	in.SetDefault(faultnet.Policy{Blackhole: true})
	ctx, cancel := context.WithCancel(bg)
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err = c.Get(ctx, "b")
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Get: err %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Errorf("canceled Get returned after %v, want < 1s (IOTimeout is 10s)", elapsed)
	}
	in.SetDefault(faultnet.Policy{})
	pool.Put(c)

	again, err := pool.Get(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(again)
	if again != c {
		t.Fatal("a one-client pool handed out a different client")
	}
	got, err := again.Get(bg, "b")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after the canceled exchange: err %v, identical %v", err, bytes.Equal(got, payload))
	}
	Recycle(got)
	if n := counting.accepts.Load(); n != 2 {
		t.Errorf("the server accepted %d connections, want 2 (the canceled one is dropped and redialed)", n)
	}
}

// TestRoundCancelInterruptsEveryExchange is the promise of DESIGN §7 for
// a Store round, whose exchanges share one cancellation hook: the caller
// cancels while every source of a read is black-holed, and the read
// returns context.Canceled at once, long before the hedge and the I/O
// deadline. Every client the round held — one per source of the stripe's
// whole plan — comes back without its connection, none parked with its
// deadline in the past, and the next read, with no retry to hide a bad
// connection, returns the right bytes.
func TestRoundCancelInterruptsEveryExchange(t *testing.T) {
	code := mustCode(t)
	_, addrs, injectors := startFaultServers(t, code, code.N())
	blockSize := code.BlockAlign() * 4
	opts := Options{IOTimeout: 10 * time.Second, Retry: retry.Policy{Attempts: 1}}
	store, err := NewStore(code, addrs, blockSize, withPool(t, opts), WithHedgeDelay(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	bg := context.Background()
	data := bytes.Repeat([]byte("round"), code.K()*blockSize/5)
	if _, err := store.WriteFile(bg, "f", data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.ReadFile(bg, "f", len(data)); err != nil { // park a connection per source
		t.Fatal(err)
	}

	for i := range code.P() {
		injectors[i].SetDefault(faultnet.Policy{Blackhole: true})
	}
	asked := nextPlan(store).Direct
	ctx, cancel := context.WithCancel(bg)
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, _, err = store.ReadFile(ctx, "f", len(data))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled read: err %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Errorf("canceled read returned after %v, want < 1s (the hedge is 5s, IOTimeout 10s)", elapsed)
	}
	for i := range code.P() {
		injectors[i].SetDefault(faultnet.Policy{})
	}
	for _, i := range asked {
		pe := store.pool.peers[addrs[i]]
		parked := make([]*Client, cap(pe.free))
		for k := range parked {
			parked[k] = <-pe.free
			if c := parked[k]; c != nil && c.conn != nil {
				t.Errorf("source %d: a client of the canceled round is parked with its connection", i)
			}
		}
		for _, c := range parked {
			pe.free <- c
		}
	}
	got, _, err := store.ReadFile(bg, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the canceled one: err %v, identical %v", err, bytes.Equal(got, data))
	}
}

// TestCancelRacesCompletion checks what a Client costs in goroutines:
// after calls under a cancellable context, none, even while it is checked
// out. Then it cancels fast exchanges at about the moment each completes
// and asks the same pooled client again under a context that is never
// canceled. With one attempt per call and no retry to hide it, a
// cancellation's deadline that landed on the connection after the
// exchange it was meant for fails the next call.
func TestCancelRacesCompletion(t *testing.T) {
	opts := Options{IOTimeout: 10 * time.Second, Retry: retry.Policy{Attempts: 1}}
	pool, addr, _, _ := startCancelServer(t, opts)
	bg := context.Background()
	payload := bytes.Repeat([]byte("r"), 256)
	if err := pool.WithClient(bg, addr, func(c *Client) error {
		return c.Put(bg, "b", payload)
	}); err != nil {
		t.Fatal(err)
	}

	// The goroutine cost: a checked-out client with a live connection, then
	// calls under a cancellable context that is never canceled. The count
	// is taken once earlier tests' connections have wound down.
	c, err := pool.Get(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(bg, "b"); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for {
		time.Sleep(20 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= base {
			break
		}
		base = n
	}
	ctx, cancel := context.WithCancel(bg)
	for i := 0; i < 10; i++ {
		if err := c.Verify(ctx, "b"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("a checked-out client holds %d goroutines after calls under a cancellable context, want none", n-base)
	}
	cancel()
	pool.Put(c)

	verify := func(ctx context.Context) error {
		return pool.WithClient(ctx, addr, func(c *Client) error {
			return c.Verify(ctx, "b")
		})
	}

	// A staircase keeps the cancellations at the moment of completion: it
	// starts at the median exchange, cancels one step earlier after an
	// exchange that completed and one step later after one that did not.
	const samples = 50
	lens := make([]time.Duration, samples)
	for i := range lens {
		start := time.Now()
		if err := verify(bg); err != nil {
			t.Fatal(err)
		}
		lens[i] = time.Since(start)
	}
	sort.Slice(lens, func(i, j int) bool { return lens[i] < lens[j] })
	median := lens[samples/2]

	const races = 500
	var canceled, completed int
	delay, step := median, median/20
	for i := 0; i < races; i++ {
		ctx, cancel := context.WithCancel(bg)
		var wg sync.WaitGroup
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < d; {
			}
			cancel()
		}(delay)
		switch err := verify(ctx); {
		case err == nil:
			completed++
			delay = max(0, delay-step)
		case errors.Is(err, context.Canceled):
			canceled++
			delay += step
		default:
			t.Fatalf("race %d: exchange under cancellation: %v", i, err)
		}
		if err := verify(bg); err != nil {
			t.Fatalf("race %d: the next call on the same client failed: %v", i, err)
		}
		wg.Wait()
	}
	t.Logf("median exchange %v, last cancel delay %v; %d races: %d completed, %d canceled", median, delay, races, completed, canceled)
}
