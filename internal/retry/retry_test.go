package retry

import (
	"context"
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	p := Policy{Attempts: 5, Base: 10 * time.Millisecond, Max: 60 * time.Millisecond}
	want := []time.Duration{
		0,
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		60 * time.Millisecond, // capped
		60 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Jitter: 0.5, Rand: func() float64 { return 0 }}
	if got := p.jittered(p.Backoff(1)); got != 75*time.Millisecond {
		t.Errorf("jitter at rand=0: %v, want 75ms", got)
	}
	p.Rand = func() float64 { return 0.999999 }
	if got := p.jittered(p.Backoff(1)); got < 124*time.Millisecond || got > 125*time.Millisecond {
		t.Errorf("jitter at rand~1: %v, want ~125ms", got)
	}
}

// TestWaitHonorsContextCancel checks that a backoff ends when its context
// does: an hour's wait under a cancelled context returns false at once.
func TestWaitHonorsContextCancel(t *testing.T) {
	p := Policy{Base: time.Hour}
	if !p.Wait(context.Background(), 0) {
		t.Fatal("Wait(0) under a live context = false, want true")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if p.Wait(ctx, 1) {
		t.Fatal("Wait under a cancelled context = true, want false")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Wait under a cancelled context took %v", d)
	}
}
