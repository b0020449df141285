package stripecache

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGetOrFetchCoalesces: N concurrent misses on one stripe run exactly
// one fetch, and every waiter receives the same bytes.
func TestGetOrFetchCoalesces(t *testing.T) {
	c := New(1 << 20)
	const waiters = 32
	const size = 4096
	var fetches atomic.Int32
	release := make(chan struct{})
	want := fill(size, 42)

	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	coalesced := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dst := make([]byte, size)
			_, co, err := c.GetOrFetch(context.Background(), "f", 3, dst, nil,
				func(ctx context.Context, out []byte) error {
					fetches.Add(1)
					<-release // hold the flight open until all goroutines join
					copy(out, want)
					return nil
				})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			results[i] = dst
			coalesced[i] = co
		}(i)
	}
	// Let every goroutine reach the flight before the fetch completes.
	for int(c.misses.Load()) < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := fetches.Load(); got != 1 {
		t.Fatalf("%d fetches for %d concurrent misses, want exactly 1", got, waiters)
	}
	nCoalesced := 0
	for i, dst := range results {
		if !bytes.Equal(dst, want) {
			t.Fatalf("waiter %d got wrong bytes", i)
		}
		if coalesced[i] {
			nCoalesced++
		}
	}
	if nCoalesced != waiters-1 {
		t.Fatalf("%d waiters reported coalesced, want %d", nCoalesced, waiters-1)
	}
	if c.Stats().CoalescedWaiters != waiters-1 {
		t.Fatalf("coalesced counter = %d, want %d", c.Stats().CoalescedWaiters, waiters-1)
	}
	// The flight's result was inserted: the next read is a plain hit.
	dst := make([]byte, size)
	hit, _, err := c.GetOrFetch(context.Background(), "f", 3, dst, nil, func(context.Context, []byte) error {
		t.Fatal("fetch ran on what should be a warm hit")
		return nil
	})
	if err != nil || !hit {
		t.Fatalf("post-flight read: hit=%v err=%v, want a clean hit", hit, err)
	}
}

// TestGetOrFetchErrorFansOut: a failing coalesced fetch delivers the same
// error to every waiter, leaves no goroutines behind, and retires the
// flight so the next caller gets a fresh attempt.
func TestGetOrFetchErrorFansOut(t *testing.T) {
	c := New(1 << 20)
	const waiters = 16
	sentinel := errors.New("blackholed")
	var fetches atomic.Int32
	release := make(chan struct{})

	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dst := make([]byte, 1024)
			_, _, errs[i] = c.GetOrFetch(context.Background(), "f", 0, dst, nil,
				func(ctx context.Context, out []byte) error {
					fetches.Add(1)
					<-release
					return sentinel
				})
		}(i)
	}
	for int(c.misses.Load()) < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := fetches.Load(); got != 1 {
		t.Fatalf("%d fetches, want 1", got)
	}
	for i, err := range errs {
		if !errors.Is(err, sentinel) {
			t.Fatalf("waiter %d got %v, want the flight's error", i, err)
		}
	}
	// Nothing was cached and the flight is gone: a retry runs a new fetch.
	var retried atomic.Bool
	dst := make([]byte, 1024)
	hit, _, err := c.GetOrFetch(context.Background(), "f", 0, dst, nil,
		func(ctx context.Context, out []byte) error { retried.Store(true); return nil })
	if err != nil || hit || !retried.Load() {
		t.Fatalf("retry after failed flight: hit=%v err=%v fetched=%v, want fresh fetch", hit, err, retried.Load())
	}
	// Leak check: give stragglers a moment, then compare goroutine counts.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestWaiterCancelDetaches: a waiter whose context dies returns promptly
// with that context's error while the flight keeps serving the remaining
// waiter — cancellation must not poison the flight.
func TestWaiterCancelDetaches(t *testing.T) {
	c := New(1 << 20)
	const size = 1024
	want := fill(size, 7)
	release := make(chan struct{})
	started := make(chan struct{})

	// Waiter A starts the flight and will be cancelled mid-fetch.
	actx, acancel := context.WithCancel(context.Background())
	aerr := make(chan error, 1)
	go func() {
		dst := make([]byte, size)
		_, _, err := c.GetOrFetch(actx, "f", 0, dst, nil,
			func(ctx context.Context, out []byte) error {
				close(started)
				select {
				case <-release:
					copy(out, want)
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
		aerr <- err
	}()
	<-started

	// Waiter B joins the same flight.
	berr := make(chan error, 1)
	bdst := make([]byte, size)
	go func() {
		_, _, err := c.GetOrFetch(context.Background(), "f", 0, bdst, nil,
			func(context.Context, []byte) error {
				t.Error("second fetch started; B did not coalesce")
				return nil
			})
		berr <- err
	}()
	for c.Stats().CoalescedWaiters == 0 {
		time.Sleep(time.Millisecond)
	}

	acancel()
	select {
	case err := <-aerr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return while the flight was still running")
	}

	close(release)
	select {
	case err := <-berr:
		if err != nil {
			t.Fatalf("surviving waiter got %v after peer cancellation", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("surviving waiter never completed")
	}
	if !bytes.Equal(bdst, want) {
		t.Fatal("surviving waiter got wrong bytes")
	}
}

// interrupter closes its channel when a flight's abort interrupts it.
type interrupter struct {
	once sync.Once
	c    chan struct{}
}

func (in *interrupter) Interrupt() { in.once.Do(func() { close(in.c) }) }

// TestAllWaitersGoneCancelsFetch: when every waiter abandons a flight,
// the fetch is aborted so it can stop hammering a dead server, and the
// flight is retired so the next caller starts fresh.
func TestAllWaitersGoneCancelsFetch(t *testing.T) {
	c := New(1 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	fetchDone := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		dst := make([]byte, 1024)
		_, _, err := c.GetOrFetch(ctx, "f", 0, dst, nil,
			func(fctx context.Context, out []byte) error {
				f := FlightOf(fctx)
				in := &interrupter{c: make(chan struct{})}
				f.Arm(in)
				close(started)
				<-in.c // simulate a blackholed fetch that only stops when aborted
				f.Disarm()
				fetchDone <- context.Canceled
				return context.Canceled
			})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("abandoning waiter got %v", err)
		}
	}()
	<-started
	cancel()
	select {
	case <-fetchDone:
	case <-time.After(2 * time.Second):
		t.Fatal("fetch not aborted after the last waiter left")
	}
	// The poisoned flight must be gone: a new caller runs a fresh fetch.
	var fresh atomic.Bool
	deadline := time.Now().Add(2 * time.Second)
	for !fresh.Load() && time.Now().Before(deadline) {
		dst := make([]byte, 1024)
		c.GetOrFetch(context.Background(), "f", 0, dst, nil,
			func(context.Context, []byte) error { fresh.Store(true); return nil })
		time.Sleep(5 * time.Millisecond)
	}
	if !fresh.Load() {
		t.Fatal("caller after an abandoned flight never got a fresh fetch")
	}
}

// TestGetOrFetchInvalidationConcurrent hammers GetOrFetch against
// Invalidate; the race detector plus the version check in the fetch
// assert nothing stale is ever fanned out.
func TestGetOrFetchInvalidationConcurrent(t *testing.T) {
	c := New(1 << 20)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Invalidate("f")
				time.Sleep(time.Microsecond)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, 256)
			for i := 0; i < 200; i++ {
				c.GetOrFetch(context.Background(), "f", i%3, dst, nil,
					func(ctx context.Context, out []byte) error {
						copy(out, fill(len(out), 1))
						return nil
					})
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestReleasedFlightWakesOnlyItsOwnLease: a flight's one done channel
// serves lease after lease. Every waiter of a lease — its starter and the
// ones that coalesced onto it — wakes once its fetch finishes, a waiter
// cancelled before the finish leaves no token behind, and the waiters of
// the flight's next lease, on another stripe, sleep until their own fetch
// finishes.
func TestReleasedFlightWakesOnlyItsOwnLease(t *testing.T) {
	c := New(1 << 20)
	sts, s := shardStripes(c, "f", 2)
	const waiters = 8
	// lease starts waiters readers of stripe st, whose fetch waits for
	// release, and one more reader, cancelled before the fetch finishes,
	// and returns once all of them are on the flight and the cancelled one
	// has left it, with the flight and a channel of the readers' errors.
	lease := func(st int, release chan struct{}) (*Flight, chan error) {
		want := fill(recycleSize, byte(st))
		errs := make(chan error, waiters)
		read := func(ctx context.Context) error {
			dst := make([]byte, recycleSize)
			_, _, err := c.GetOrFetch(ctx, "f", st, dst, nil, func(_ context.Context, out []byte) error {
				<-release
				copy(out, want)
				return nil
			})
			if err == nil && !bytes.Equal(dst, want) {
				err = errors.New("a waiter copied other bytes than its lease's fetch wrote")
			}
			return err
		}
		for range waiters {
			go func() { errs <- read(context.Background()) }()
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan error, 1)
		go func() { cancelled <- read(ctx) }()
		key := Key{File: "f", Stripe: st}
		var f *Flight
		for joined := false; !joined; runtime.Gosched() {
			s.mu.Lock()
			f = s.flights[key]
			joined = f != nil && f.waiters == waiters+1
			s.mu.Unlock()
		}
		cancel()
		if err := <-cancelled; !errors.Is(err, context.Canceled) {
			t.Fatalf("stripe %d: the cancelled waiter returned %v, want context.Canceled", st, err)
		}
		return f, errs
	}
	release := make(chan struct{})
	first, errs := lease(sts[0], release)
	close(release)
	for range waiters {
		if err := <-errs; err != nil {
			t.Fatalf("first lease: %v", err)
		}
	}
	s.mu.Lock()
	idle, tokens := slices.Contains(s.idle, first), len(first.done)
	s.mu.Unlock()
	if !idle || tokens != 0 {
		t.Fatalf("after its last waiter: the flight is idle %v with %d tokens on done; want idle, none", idle, tokens)
	}
	release = make(chan struct{})
	second, errs := lease(sts[1], release)
	if second != first {
		t.Fatal("the next miss on the shard did not lease the released flight")
	}
	select {
	case err := <-errs:
		t.Fatalf("a waiter of the next lease woke before its fetch finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for range waiters {
		if err := <-errs; err != nil {
			t.Fatalf("second lease: %v", err)
		}
	}
}
