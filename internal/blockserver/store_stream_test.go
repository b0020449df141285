package blockserver

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"carousel/internal/stream"
)

// TestStoreStreamRoundTrip stacks the stream adapters on a live TCP
// cluster: a stream.Writer uploads through Store.Sink, a PrefetchReader
// pulls the stripes back through Store.Source over the same pooled
// connections, and after one server dies the remaining blocks still
// reassemble the stream (each stripe re-plans around the dead source, as
// in ReadFile).
func TestStoreStreamRoundTrip(t *testing.T) {
	code := mustCode(t)
	srvs, addrs := startServers(t, code, code.N())
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize, WithClientOptions(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	stripeData := code.K() * blockSize
	size := 6*stripeData - 11
	data := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(data)

	w, err := stream.NewWriter(code, blockSize, store.Sink(ctx, "f"))
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
	r, err := stream.NewPrefetchReader(code, blockSize, int64(size), store.Source(ctx, "f"), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed round trip over TCP mismatch")
	}
	waitGoroutines(t, base)

	// Degraded: kill one server; the stripes that meet it re-plan around
	// it and the rest plan around it from the start.
	srvs[2].Close()
	r, err = stream.NewPrefetchReader(code, blockSize, int64(size), store.Source(ctx, "f"), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded streamed round trip mismatch")
	}
}

// TestStoreStreamWithoutCacheTakesTheParallelPath: whether a store has a
// stripe cache must not select how a stream reads. A healthy file streamed
// from a cache-less store moves the p data prefixes — k blocks' worth of
// bytes per stripe, 1.0 B/B — through the hedged parallel path and its
// counters, exactly as ReadFile does; it used to fetch whole blocks from
// all n servers (n/k = 2.0 B/B) around them.
func TestStoreStreamWithoutCacheTakesTheParallelPath(t *testing.T) {
	code := mustCode(t)
	_, addrs := startServers(t, code, code.N())
	blockSize := code.BlockAlign() * 1024
	store, err := NewStore(code, addrs, blockSize, WithClientOptions(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	const stripes = 4
	stripeData := code.K() * blockSize
	data := make([]byte, stripes*stripeData)
	rand.New(rand.NewSource(8)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}

	rxBefore, parallelBefore := cliBytesRx.Value(), mStripesParallel.Value()
	r, err := stream.NewPrefetchReader(code, blockSize, int64(len(data)), store.Source(ctx, "f"), 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed read of a cache-less store mismatch")
	}
	if rx := cliBytesRx.Value() - rxBefore; rx < int64(len(data)) || rx > int64(len(data))*11/10 {
		t.Errorf("stream received %d bytes for %d of data (%.2f B/B), want 1.0: k blocks' worth per stripe, not n",
			rx, len(data), float64(rx)/float64(len(data)))
	}
	if d := mStripesParallel.Value() - parallelBefore; d != stripes {
		t.Errorf("store_parallel_stripes_total moved by %d, want %d: the stream bypassed the hedged path", d, stripes)
	}
}
