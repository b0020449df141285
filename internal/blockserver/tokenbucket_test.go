package blockserver

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestTokenBucketNilNeverWaits: the unthrottled path is a nil bucket, and
// it must be free.
func TestTokenBucketNilNeverWaits(t *testing.T) {
	var tb *tokenBucket
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // even a dead context must not surface: nil means no budget
	start := time.Now()
	if err := tb.Wait(ctx, 1<<30); err != nil {
		t.Fatalf("nil bucket Wait: %v", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("nil bucket waited %v", d)
	}
}

// idle banks d of idle time into tb, as if its last charge were d ago.
func idle(tb *tokenBucket, d time.Duration) {
	tb.mu.Lock()
	tb.last = tb.last.Add(-d)
	tb.mu.Unlock()
}

// TestTokenBucketBurstIsFree: a bucket starts empty, so its first charge
// pays for itself; once idle time has banked tokens, charges within the
// bank return without sleeping.
func TestTokenBucketBurstIsFree(t *testing.T) {
	tb := newTokenBucket(1024, 4096)
	start := time.Now()
	if err := tb.Wait(context.Background(), 256); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("a fresh bucket's 256 B charge at 1 KiB/s slept %v, want ~250ms", d)
	}
	idle(tb, time.Minute) // banks the 4096 B burst, no more
	start = time.Now()
	if err := tb.Wait(context.Background(), 4096); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("burst-covered charge slept %v", d)
	}
}

// TestTokenBucketDeficitAccounting: charging past the burst drives the
// balance negative, and the sleep pays exactly the deficit off at the
// configured rate.
func TestTokenBucketDeficitAccounting(t *testing.T) {
	// 1 MiB/s with a 1 KiB burst (raised to rate/4 = 256 KiB by the
	// constructor floor).
	rate := int64(1 << 20)
	tb := newTokenBucket(rate, 1024)
	if tb.burst != float64(rate)/4 {
		t.Fatalf("burst floor: got %v, want %v", tb.burst, float64(rate)/4)
	}
	// The bucket starts empty: a 128 KiB charge is a 128 KiB deficit, at
	// 1 MiB/s = 125ms.
	start := time.Now()
	if err := tb.Wait(context.Background(), 128<<10); err != nil {
		t.Fatalf("deficit charge: %v", err)
	}
	elapsed := time.Since(start)
	want := 125 * time.Millisecond
	if elapsed < want/2 || elapsed > 4*want {
		t.Fatalf("deficit sleep: got %v, want ~%v", elapsed, want)
	}
	tb.mu.Lock()
	tokens := tb.tokens
	tb.mu.Unlock()
	// The balance went negative at charge time; Wait slept the deficit off
	// but does not refill until the next charge observes the elapsed time.
	if tokens > 0 {
		t.Fatalf("balance after deficit charge: got %v, want <= 0", tokens)
	}
}

// TestTokenBucketCancelMidSleep: a context canceled while sleeping off a
// deficit surfaces promptly as a classified error instead of finishing the
// sleep.
func TestTokenBucketCancelMidSleep(t *testing.T) {
	// 1 KiB/s: a 64 KiB charge would sleep for about a minute.
	tb := newTokenBucket(1024, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tb.Wait(ctx, 64<<10) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Wait: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after cancellation")
	}
}

// TestTokenBucketDeadlineMidSleep: a deadline expiring mid-sleep
// classifies as the block path's timeout sentinel, so callers can tell a
// throttle-starved pass from a dead helper.
func TestTokenBucketDeadlineMidSleep(t *testing.T) {
	tb := newTokenBucket(1024, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := tb.Wait(ctx, 64<<10)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline Wait: got %v, want ErrTimeout", err)
	}
}

// TestTokenBucketBurstOneRepair: the RecoverServer wiring sizes burst to
// one repair's bytes and starts empty, so a pass's first repair pays one
// repair interval, and however long a pass idles, one repair proceeds
// immediately and the next pays a full interval — pacing at repair
// granularity. Concurrent chargers (run with -race) exercise the lock.
func TestTokenBucketBurstOneRepair(t *testing.T) {
	repairBytes := 32 << 10
	rate := int64(4 * repairBytes) // 4 repairs/sec → 250ms per repair
	tb := newTokenBucket(rate, repairBytes)
	// burst = max(repairBytes, rate/4) = repairBytes here.
	if tb.burst != float64(repairBytes) {
		t.Fatalf("burst: got %v, want %v", tb.burst, repairBytes)
	}
	charge := func(what string, minD, maxD time.Duration) {
		t.Helper()
		start := time.Now()
		if err := tb.Wait(context.Background(), repairBytes); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := time.Since(start); d < minD || d > maxD {
			t.Fatalf("%s slept %v, want within [%v, %v]", what, d, minD, maxD)
		}
	}
	charge("first repair of a fresh bucket", 150*time.Millisecond, time.Second)
	idle(tb, time.Minute)
	charge("repair after a long idle", 0, 100*time.Millisecond)
	charge("next repair", 150*time.Millisecond, time.Second)

	// Concurrent charges against one fresh bucket: the long-run pace
	// bounds the total elapsed time from below.
	tb = newTokenBucket(rate, repairBytes)
	const chargers = 4
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < chargers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tb.Wait(context.Background(), repairBytes); err != nil {
				t.Errorf("concurrent charge: %v", err)
			}
		}()
	}
	wg.Wait()
	// 4 charges from empty at 4 repairs/sec: the slowest charger pays ~4
	// repair intervals.
	if d := time.Since(start); d < 750*time.Millisecond {
		t.Fatalf("%d concurrent repairs finished in %v, want >= 750ms of pacing", chargers, d)
	}
}
