package stream

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines waits for the goroutine count to come back to base —
// prefetch workers and the dispatcher must not outlive their reader.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPrefetchRoundTripVariousSizes(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 16
	stripeData := code.K() * blockSize
	rng := rand.New(rand.NewSource(2))
	base := runtime.NumGoroutine()
	for _, size := range []int{1, blockSize - 1, stripeData, stripeData + 1, 9*stripeData - 7} {
		data := make([]byte, size)
		rng.Read(data)
		sink := &MemSink{}
		w, err := NewWriter(code, blockSize, sink)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{1, 3, 0 /* default */} {
			r, err := NewPrefetchReader(code, blockSize, int64(size), Decoded(code, sink), depth)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("size %d depth %d: %v", size, depth, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("size %d depth %d: round trip mismatch", size, depth)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitGoroutines(t, base)
}

func TestPrefetchReaderToleratesMissingBlocks(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 8
	stripeData := code.K() * blockSize
	size := 4 * stripeData
	data := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(data)
	sink := &MemSink{}
	w, err := NewWriter(code, blockSize, sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop a different set of n-k blocks from every stripe.
	for st := 0; st < 4; st++ {
		for i := 0; i < code.N()-code.K(); i++ {
			sink.Drop(st, (st+i*3)%code.N())
		}
	}
	r, err := NewPrefetchReader(code, blockSize, int64(size), Decoded(code, sink), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded prefetch round trip mismatch")
	}
}

// TestPrefetchReaderEarlyClose stops consuming mid-stream: Close must
// reclaim every in-flight stripe, leave no goroutines, and fail later
// reads.
func TestPrefetchReaderEarlyClose(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 16
	stripeData := code.K() * blockSize
	size := 16 * stripeData
	data := make([]byte, size)
	rand.New(rand.NewSource(4)).Read(data)
	sink := &MemSink{}
	w, err := NewWriter(code, blockSize, sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	r, err := NewPrefetchReader(code, blockSize, int64(size), Decoded(code, sink), 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, stripeData/2)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, err := r.Read(buf); err == nil {
		t.Fatal("read after Close succeeded")
	}
	waitGoroutines(t, base)
}

// failingSource delivers one good stripe, then errors.
type failingSource struct {
	good BlockSource
}

func (f *failingSource) StripeBlocks(stripe int) ([][]byte, error) {
	if stripe == 0 {
		return f.good.StripeBlocks(0)
	}
	return nil, fmt.Errorf("stripe %d unavailable", stripe)
}

func TestPrefetchReaderPropagatesSourceError(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 8
	stripeData := code.K() * blockSize
	size := 3 * stripeData
	data := make([]byte, size)
	rand.New(rand.NewSource(5)).Read(data)
	sink := &MemSink{}
	w, err := NewWriter(code, blockSize, sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	r, err := NewPrefetchReader(code, blockSize, int64(size), Decoded(code, &failingSource{good: sink}), 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err == nil {
		t.Fatal("read past a failing stripe succeeded")
	}
	if len(got) > stripeData {
		t.Fatalf("read %d bytes past the failure, want at most one stripe", len(got))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

func TestPrefetchReaderValidation(t *testing.T) {
	code := mustCode(t)
	if _, err := NewPrefetchReader(code, 7, 100, Decoded(code, &MemSink{}), 1); err == nil {
		t.Error("misaligned block size accepted")
	}
	if _, err := NewPrefetchReader(code, code.BlockAlign(), -1, Decoded(code, &MemSink{}), 1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewPrefetchReader(code, code.BlockAlign(), 100, nil, 1); err == nil {
		t.Error("nil source accepted")
	}
}
