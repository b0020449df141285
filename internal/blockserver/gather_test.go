package blockserver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fetchKind scripts one candidate's fake fetch in the gather tests.
type fetchKind int

const (
	fetchOK   fetchKind = iota // answers at once with a payload
	fetchFail                  // fails at once
	fetchHang                  // blocks until cancelled, then reports the cancellation
	fetchLate                  // blocks until cancelled, then answers with a payload anyway
)

var errFetch = errors.New("scripted fetch failure")

// TestGather drives the one scatter/gather with scripted fetches. Every
// case checks the accounting contract — each sees every started fetch
// exactly once, winners number got, every payload handed out is either
// kept as a winner or recycled as a loser — and that the fetches still
// running at the decision saw their context cancelled: fetchHang and
// fetchLate never return otherwise, so gather returning at all proves the
// cancel fired before the wait.
func TestGather(t *testing.T) {
	cases := []struct {
		name         string
		script       []fetchKind
		need         int
		got, started int
		failed       bool // firstErr expected
	}{
		{"p of p with one failure stops at once",
			[]fetchKind{fetchHang, fetchLate, fetchFail, fetchHang}, 4, 0, 4, true},
		{"k of n with n-k+1 failures stops at once",
			[]fetchKind{fetchFail, fetchFail, fetchFail, fetchFail, fetchHang, fetchLate}, 3, 0, 6, true},
		{"no failure starts no spare",
			[]fetchKind{fetchOK, fetchOK, fetchOK, fetchOK}, 2, 2, 2, false},
		{"one failure promotes one spare",
			[]fetchKind{fetchFail, fetchOK, fetchOK, fetchOK, fetchOK}, 2, 2, 3, true},
		{"spares run out at the candidate list",
			[]fetchKind{fetchFail, fetchFail, fetchFail, fetchFail}, 2, 0, 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			candidates := make([]int, len(tc.script))
			for i := range candidates {
				candidates[i] = 100 + i // not positions: gather must pass them through
			}
			var cancelled, handedOut atomic.Int64
			fetch := func(ctx context.Context, idx int) sourceResult {
				r := sourceResult{idx: idx}
				kind := tc.script[idx-100]
				if kind == fetchHang || kind == fetchLate {
					<-ctx.Done()
					cancelled.Add(1)
				}
				switch kind {
				case fetchFail:
					r.err = errFetch
				case fetchHang:
					r.err = ctx.Err()
				default:
					handedOut.Add(1)
					r.data = make([]byte, 8)
				}
				return r
			}
			seen := make(map[int]int)
			wins, recycled := 0, 0
			each := func(r sourceResult, won bool) {
				seen[r.idx]++
				switch {
				case won && r.err != nil:
					t.Errorf("fetch %d won with error %v", r.idx, r.err)
				case won:
					wins++ // the caller keeps a winner's payload
				case r.data != nil:
					recycled++
				}
			}
			got, started, firstErr := gather(context.Background(), candidates, tc.need, fetch, each)
			if got != tc.got || started != tc.started {
				t.Errorf("got %d started %d, want %d and %d", got, started, tc.got, tc.started)
			}
			if (firstErr != nil) != tc.failed || (tc.failed && !errors.Is(firstErr, errFetch)) {
				t.Errorf("firstErr = %v, want failure %v", firstErr, tc.failed)
			}
			if wins != got {
				t.Errorf("each reported %d winners, gather %d", wins, got)
			}
			if len(seen) != started {
				t.Errorf("each saw %d distinct fetches, want the %d started", len(seen), started)
			}
			for i, idx := range candidates {
				if (i < started) != (seen[idx] == 1) {
					t.Errorf("candidate %d reached each %d times (started: %v)", idx, seen[idx], i < started)
				}
			}
			blocked := int64(0)
			for _, kind := range tc.script[:started] {
				if kind == fetchHang || kind == fetchLate {
					blocked++
				}
			}
			if cancelled.Load() != blocked {
				t.Errorf("%d blocked fetches saw the cancel, want %d", cancelled.Load(), blocked)
			}
			if int64(wins+recycled) != handedOut.Load() {
				t.Errorf("%d payloads handed out, %d kept + %d recycled: one was dropped", handedOut.Load(), wins, recycled)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestPipelineBoundsInflight: never more than depth calls at once, and a
// clean pass launches everything.
func TestPipelineBoundsInflight(t *testing.T) {
	const n, depth = 40, 3
	var cur, peak atomic.Int64
	errs, launched := pipeline(context.Background(), n, depth, func(ctx context.Context, i int) error {
		c := cur.Add(1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if launched != n {
		t.Errorf("launched %d of %d", launched, n)
	}
	if p := peak.Load(); p > depth || p < 2 {
		t.Errorf("peak in flight = %d, want overlap but at most %d", p, depth)
	}
	if i, err := pipelineErr(context.Background(), errs, launched); err != nil {
		t.Errorf("clean pass reported item %d: %v", i, err)
	}
}

// TestPipelineRootCause is the wrong-error-wins fix: item 0 is still in
// flight when item 1 fails, so item 0 is cancelled and comes back with
// context.Canceled. Nothing launches after the failure, and the reported
// error is item 1's — not the lowest-index one the per-caller loops used
// to return.
func TestPipelineRootCause(t *testing.T) {
	sentinel := fmt.Errorf("stripe timed out: %w", ErrTimeout)
	oneRunning := make(chan struct{})
	var calls atomic.Int64
	ctx := context.Background()
	errs, launched := pipeline(ctx, 10, 2, func(ctx context.Context, i int) error {
		calls.Add(1)
		if i == 0 {
			close(oneRunning)
			<-ctx.Done()
			return ctx.Err()
		}
		<-oneRunning
		return sentinel
	})
	if launched != 2 || calls.Load() != 2 {
		t.Fatalf("launched %d, ran %d; want exactly the 2 in flight at the failure", launched, calls.Load())
	}
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("item 0 returned %v, want the knock-on context.Canceled", errs[0])
	}
	i, err := pipelineErr(ctx, errs, launched)
	if i != 1 || !errors.Is(err, ErrTimeout) || errors.Is(err, context.Canceled) {
		t.Fatalf("root cause = item %d: %v; want item 1's timeout", i, err)
	}
}

// TestPipelineCallerCancel: when the caller's context ends, launching
// stops, launched is exact, and the reported reason is the context's.
func TestPipelineCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs, launched := pipeline(ctx, 10, 1, func(_ context.Context, i int) error {
		if i == 2 {
			cancel()
		}
		return nil
	})
	if launched != 3 {
		t.Fatalf("launched %d, want 3 (items 0..2, then the cancel)", launched)
	}
	if i, err := pipelineErr(ctx, errs, launched); i != 3 || !errors.Is(err, context.Canceled) {
		t.Fatalf("pipelineErr = item %d: %v; want the first unlaunched item and context.Canceled", i, err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	errs, launched = pipeline(dctx, 4, 2, func(context.Context, int) error { return nil })
	if launched != 0 {
		t.Fatalf("launched %d under an expired deadline, want 0", launched)
	}
	if _, err := pipelineErr(dctx, errs, launched); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired deadline reported %v, want ErrTimeout", err)
	}
}

// TestPipelineErrRule pins the selection rule on hand-built outcomes.
func TestPipelineErrRule(t *testing.T) {
	boom := errors.New("boom")
	wrapped := fmt.Errorf("stripe: %w", context.Canceled)
	cases := []struct {
		name     string
		errs     []error
		launched int
		item     int
		want     error
	}{
		{"clean", []error{nil, nil}, 2, 0, nil},
		{"real error behind a knock-on", []error{wrapped, nil, boom, wrapped}, 4, 2, boom},
		{"only cancellations: the first", []error{nil, wrapped, context.Canceled}, 3, 1, context.Canceled},
		{"real error first", []error{boom, wrapped}, 2, 0, boom},
	}
	for _, tc := range cases {
		i, err := pipelineErr(context.Background(), tc.errs, tc.launched)
		if i != tc.item || !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
			t.Errorf("%s: item %d err %v, want item %d err %v", tc.name, i, err, tc.item, tc.want)
		}
	}
}

// TestAnyKReportsItsContext: a stripe read starved by its own context
// ending is a victim, so it reports the context's error — which is what
// lets the pipeline's root-cause rule see past it — and never
// ErrTooFewSurvivors.
func TestAnyKReportsItsContext(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, code.N())
	blockSize := code.BlockAlign()
	store, err := NewStore(code, addrs, blockSize, WithClientOptions(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	dst := make([]byte, code.K()*blockSize)
	stats := &ReadStats{mu: new(sync.Mutex)}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = store.readStripeInto(ctx, "absent", 0, dst, stats)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrTooFewSurvivors) {
		t.Errorf("cancelled stripe read: %v, want context.Canceled and not ErrTooFewSurvivors", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	err = store.readStripeInto(dctx, "absent", 0, dst, stats)
	if !errors.Is(err, ErrTimeout) || errors.Is(err, ErrTooFewSurvivors) {
		t.Errorf("expired stripe read: %v, want ErrTimeout and not ErrTooFewSurvivors", err)
	}
	// A live context and a file nobody wrote is the real shortage.
	err = store.readStripeInto(context.Background(), "absent", 0, dst, stats)
	if !errors.Is(err, ErrTooFewSurvivors) {
		t.Errorf("absent file: %v, want ErrTooFewSurvivors", err)
	}
}
