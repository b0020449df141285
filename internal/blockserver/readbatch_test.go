package blockserver

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
)

// TestReadFileBatchesSourceExchanges counts the round trips a read costs at
// the servers: a healthy batch asks each of its p sources once, for every
// stripe's data prefix, so a 32-stripe ReadFile at (12,6,10,10) makes p = 10
// range exchanges, not one per source per stripe (320), and still fetches
// exactly the file's bytes. A file too large for one batch makes p per
// batch. A one-stripe read is a batch of one (p exchanges), and so is each
// miss of a stripe cache, which coalesces misses stripe by stripe: a cold
// cached read makes p per stripe and a warm one none.
func TestReadFileBatchesSourceExchanges(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := int64(code.P())
	_, addrs := startServers(t, code, code.N())
	ctx := context.Background()
	// read writes a file of the given stripes through store and reads it
	// back, reporting the range exchanges the servers answered meanwhile.
	read := func(store *Store, name string, stripes, blockSize int) (int64, *ReadStats) {
		t.Helper()
		data := make([]byte, stripes*code.K()*blockSize)
		rand.New(rand.NewSource(int64(stripes))).Read(data)
		if _, err := store.WriteFile(ctx, name, data); err != nil {
			t.Fatal(err)
		}
		exchanges0 := servedExchanges(opRange)
		got, stats, err := store.ReadFile(ctx, name, len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: err %v, identical %v", name, err, bytes.Equal(got, data))
		}
		if stats.BytesFetched != int64(len(data)) || stats.StripesParallel != stripes {
			t.Errorf("%s: fetched %d bytes over %d parallel stripes, want %d over %d", name, stats.BytesFetched, stats.StripesParallel, len(data), stripes)
		}
		return servedExchanges(opRange) - exchanges0, stats
	}

	blockSize := code.BlockAlign() * 16
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	if got, _ := read(store, "f", 32, blockSize); got != p {
		t.Errorf("a 32-stripe read made %d range exchanges, want p = %d: one per source", got, p)
	}
	if got, _ := read(store, "one", 1, blockSize); got != p {
		t.Errorf("a one-stripe read made %d range exchanges, want p = %d", got, p)
	}

	// Blocks large enough that two stripes fill batchBytes: three stripes
	// are two batches.
	large := batchBytes / (2 * code.K()) / code.BlockAlign() * code.BlockAlign()
	bigStore, err := NewStore(code, addrs, large)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bigStore.Close)
	if per := batchBytes / (code.K() * large); per != 2 {
		t.Fatalf("%d-byte blocks make batches of %d stripes, want 2", large, per)
	}
	if got, _ := read(bigStore, "big", 3, large); got != 2*p {
		t.Errorf("a 3-stripe read in batches of 2 made %d range exchanges, want 2p = %d", got, 2*p)
	}

	cached, err := NewStore(code, addrs, blockSize, WithStripeCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cached.Close)
	if got, _ := read(cached, "cold", 1, blockSize); got != p {
		t.Errorf("a cached read's one miss made %d range exchanges, want p = %d", got, p)
	}
	if got, _ := read(cached, "cold32", 32, blockSize); got != 32*p {
		t.Errorf("a cold cached 32-stripe read made %d range exchanges, want p per miss = %d", got, 32*p)
	}
	exchanges0 := servedExchanges(opRange)
	if _, stats, err := cached.ReadFile(ctx, "cold32", 32*code.K()*blockSize); err != nil || stats.CacheHits != 32 {
		t.Fatalf("warm cached read: err %v, %+v", err, stats)
	}
	if got := servedExchanges(opRange) - exchanges0; got != 0 {
		t.Errorf("a warm cached read made %d range exchanges, want 0", got)
	}
}

// TestBlackholedSourceCostsOneHedgePerBatch: a data source that accepts
// and then goes silent holds up one exchange per batch, not one per
// stripe. Its exchange carries every stripe of the batch, so the one hedge
// expiry strikes it for all of them and they re-plan together: a 32-stripe
// read (one batch) returns within a few hedge delays, every stripe served
// around the silent source. Striking per stripe, stripesInFlight at a time,
// costs 32/stripesInFlight = 8 expiries in a row.
func TestBlackholedSourceCostsOneHedgePerBatch(t *testing.T) {
	pc := newPlannedCluster(t, 12, 6, 10, 10, 32, WithHedgeDelay(100*time.Millisecond))
	const dark = 3
	pc.injectors[dark].SetDefault(faultnet.Policy{Blackhole: true})
	defer pc.injectors[dark].SetDefault(faultnet.Policy{})
	t0 := time.Now()
	stats, _ := pc.read(t)
	elapsed := time.Since(t0)
	if elapsed > 400*time.Millisecond {
		t.Errorf("the read took %v, want under 400ms: one 100ms hedge per batch", elapsed)
	}
	if stats.StripesFallback != pc.stripes {
		t.Errorf("%d of %d stripes planned around the silent source", stats.StripesFallback, pc.stripes)
	}
	if want := int64(len(pc.data)); stats.BytesFetched != want {
		t.Errorf("fetched %d bytes, want exactly the file's %d", stats.BytesFetched, want)
	}
}

// TestBatchScratchRetainsNothing: the scratch a batch exchange leaves on a
// pooled client (the answer's landing list) and on a server connection
// (the blocks it served from) is cleared as the exchange filled it. So
// once a ReadFile's caller lets go of the result, nothing parked keeps it
// alive, and a block deleted after a batch served it is freed. A deferred
// clear of the scratch as it stood before the appends kept both: every
// parked client held a read's output buffer.
func TestBatchScratchRetainsNothing(t *testing.T) {
	pc := newPlannedCluster(t, 12, 6, 10, 10, 4)
	// freed waits for the finalizer set on an object to run, collecting as
	// it goes.
	freed := func(what string, done chan struct{}) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			runtime.GC()
			select {
			case <-done:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Errorf("%s is still reachable", what)
	}
	name := BlockName("f", 0, 0)
	out, block := make(chan struct{}), make(chan struct{})
	func() {
		pc.servers[0].mu.RLock()
		b := pc.servers[0].blocks[name].data
		pc.servers[0].mu.RUnlock()
		runtime.SetFinalizer(&b[0], func(*byte) { close(block) })
		data, _, err := pc.store.ReadFile(context.Background(), "f", len(pc.data))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&data[0], func(*byte) { close(out) })
	}()
	freed("a returned ReadFile's output", out)
	deleteBlock(t, pc.addrs[0], name)
	freed("a deleted block a batch served", block)
}
