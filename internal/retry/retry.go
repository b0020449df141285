// Package retry implements bounded retry with exponential backoff and
// jitter, the policy the block-path clients use for idempotent operations
// against flaky or restarting peers. The jitter source is injectable so
// tests are deterministic.
package retry

import (
	"context"
	"math/rand"
	"time"
)

// Policy describes a retry schedule. The zero value performs exactly one
// attempt (no retries).
type Policy struct {
	// Attempts is the total number of tries, including the first. Values
	// below 1 are treated as 1.
	Attempts int
	// Base is the backoff before the second attempt; each further attempt
	// multiplies it by Multiplier, capped at Max.
	Base time.Duration
	// Max caps a single backoff. Zero means no cap.
	Max time.Duration
	// Multiplier grows the backoff between attempts. Values <= 1 are
	// treated as 2.
	Multiplier float64
	// Jitter is the fraction of each backoff that is randomized: the sleep
	// is backoff * (1 - Jitter/2 + Jitter*rand). Zero means deterministic
	// backoff.
	Jitter float64
	// Rand supplies the jitter in [0,1); nil uses math/rand. Tests inject a
	// fixed source for reproducibility.
	Rand func() float64
}

// Backoff returns the sleep before attempt number attempt (1-based: the
// backoff after the attempt-th failure), without jitter applied.
func (p Policy) Backoff(attempt int) time.Duration {
	if attempt < 1 || p.Base <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(p.Base)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.Max > 0 && d >= float64(p.Max) {
			return p.Max
		}
	}
	if p.Max > 0 && d > float64(p.Max) {
		d = float64(p.Max)
	}
	return time.Duration(d)
}

// jittered applies the policy's jitter to a backoff.
func (p Policy) jittered(d time.Duration) time.Duration {
	if d <= 0 || p.Jitter <= 0 {
		return d
	}
	r := p.Rand
	if r == nil {
		r = rand.Float64
	}
	f := 1 - p.Jitter/2 + p.Jitter*r()
	return time.Duration(float64(d) * f)
}

// Wait sleeps the jittered backoff that follows the attempt-th failure
// (1-based), or returns early when ctx is done; it reports whether the
// full wait elapsed. Callers write their own attempt loop, which decides
// what is retryable and what each attempt tallies, and call Wait between
// tries.
func (p Policy) Wait(ctx context.Context, attempt int) bool {
	return sleep(ctx, p.jittered(p.Backoff(attempt)))
}

// sleep waits d or until ctx is done, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
