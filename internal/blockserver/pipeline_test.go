package blockserver

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"carousel/internal/stripecache"
)

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
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	dst := make([]byte, code.K()*blockSize)
	var tally stripecache.Tally

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = store.readBatch(ctx, "absent", 0, 1, dst, &tally, nil)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrTooFewSurvivors) {
		t.Errorf("cancelled stripe read: %v, want context.Canceled and not ErrTooFewSurvivors", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, err = store.readBatch(dctx, "absent", 0, 1, dst, &tally, nil)
	if !errors.Is(err, ErrTimeout) || errors.Is(err, ErrTooFewSurvivors) {
		t.Errorf("expired stripe read: %v, want ErrTimeout and not ErrTooFewSurvivors", err)
	}
	// A live context and a file nobody wrote is the real shortage.
	_, err = store.readBatch(context.Background(), "absent", 0, 1, dst, &tally, nil)
	if !errors.Is(err, ErrTooFewSurvivors) {
		t.Errorf("absent file: %v, want ErrTooFewSurvivors", err)
	}
}

// TestRepairReportsItsContext: a repair runs the read's stripe loop, so a
// repair starved by its own context ending is a victim too — it reports
// the context's error, which is what lets RecoverServer's root-cause rule
// see past it — and a live context with no helper holding the stripe is
// the real shortage.
func TestRepairReportsItsContext(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, code.BlockAlign(), withPool(t, fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := store.Repair(ctx, "absent", 0, 3); !errors.Is(err, context.Canceled) || errors.Is(err, ErrTooFewSurvivors) {
		t.Errorf("cancelled repair: %v, want context.Canceled and not ErrTooFewSurvivors", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := store.Repair(dctx, "absent", 0, 3); !errors.Is(err, ErrTimeout) || errors.Is(err, ErrTooFewSurvivors) {
		t.Errorf("expired repair: %v, want ErrTimeout and not ErrTooFewSurvivors", err)
	}
	if _, err := store.Repair(context.Background(), "absent", 0, 3); !errors.Is(err, ErrTooFewSurvivors) {
		t.Errorf("absent file: %v, want ErrTooFewSurvivors", err)
	}
}
