package blockserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
	"carousel/internal/frame"
	"carousel/internal/obs"
	"carousel/internal/stripecache"
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

// TestBlackholedSourceCheckoutEndsAtTheHedge: a round that has to wait
// for a client of a silent source stops waiting at its hedge, as its
// exchange would, so the source is struck and the stripes re-planned. Other
// callers' exchanges hold every client of the black-holed source, waiting
// out its silence under no hedge, while twice as many reads as a peer has
// clients run at once: each returns its bytes within a few hedges. A
// checkout that waited on the caller's context alone waited for a holder.
func TestBlackholedSourceCheckoutEndsAtTheHedge(t *testing.T) {
	pc := newPlannedCluster(t, 12, 6, 10, 10, 4, WithHedgeDelay(100*time.Millisecond))
	const dark = 3
	pc.injectors[dark].SetDefault(faultnet.Policy{Blackhole: true})
	defer pc.injectors[dark].SetDefault(faultnet.Policy{})
	bg := context.Background()
	hold, release := context.WithCancel(bg)
	var holders sync.WaitGroup
	defer holders.Wait()
	defer release()
	for range DefaultPerPeer {
		c, err := pc.store.pool.Get(bg, pc.addrs[dark])
		if err != nil {
			t.Fatal(err)
		}
		holders.Add(1)
		go func() {
			defer holders.Done()
			defer pc.store.pool.Put(c)
			if got, err := c.Get(hold, BlockName("f", 0, dark)); err == nil {
				Recycle(got)
			}
		}()
	}

	const readers = 2 * DefaultPerPeer
	errs := make(chan error, readers)
	for range readers {
		go func() {
			ctx, cancel := context.WithTimeout(bg, 10*time.Second)
			defer cancel()
			t0 := time.Now()
			got, _, err := pc.store.ReadFile(ctx, "f", len(pc.data))
			switch elapsed := time.Since(t0); {
			case err != nil:
				errs <- err
			case !bytes.Equal(got, pc.data):
				errs <- errors.New("a read returned different bytes")
			case elapsed > 500*time.Millisecond:
				errs <- fmt.Errorf("a read took %v, want under 500ms: one 100ms hedge, then a re-plan", elapsed)
			default:
				errs <- nil
			}
		}()
	}
	for range readers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// dropSpares empties the server's spare list of size-byte buffers, the one
// holder of retired blocks' buffers that is meant to keep them.
func (s *Server) dropSpares(size int) {
	s.spares.Take(nil, spareBlocks, size)
}

// TestBatchScratchRetainsNothing: the scratch a batch exchange leaves on a
// pooled client (the answer's landing list) and on a server connection
// (the blocks it served from, which it pins) is cleared as the exchange
// filled it. So once a ReadFile's caller lets go of the result, nothing
// parked keeps it alive, and a block deleted after a batch served it is
// freed once the server's spare list lets go of it. A deferred clear of
// the scratch as it stood before the appends kept both: every parked
// client held a read's output buffer.
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
	waitIdle(pc.servers[:1]) // the batch's answer has unpinned the block
	deleteBlock(t, pc.addrs[0], name)
	pc.servers[0].dropSpares(pc.blockSize)
	freed("a deleted block a batch served", block)
}

// TestLeasedLoopRetainsNothing: a batch gives its leased stripe loop
// (batchLoop) back to the free list holding no pointer — to a caller's
// output, tally, flight, context or spans, a pooled buffer, a verdict, an
// exchange's error or a stripe's — after each kind of batch: a healthy
// batched read, a degraded read, a repair of one stripe and one of every
// stripe, whose batches the newcomer runs, a cached miss, a cached read
// that fails, and a read that fails. A cache
// flight a shard takes back for its next miss (stripecache's free list of
// flights) holds nothing at all but the run func it was bound with and
// the done channel it keeps for its life: no result, entry, tally, abort,
// fetch, key or context, checked by content after every operation. The loops' free list is a sync.Pool, which
// drops what it holds after two collections, so a finalizer test such as
// TestBatchScratchRetainsNothing cannot see a lease that keeps a caller's
// output alive; this one takes
// the leases back from the free list and looks inside them, with
// GOMAXPROCS at 1 so that every lease goes back to the one free list the
// test's takes look in. An operation is repeated until a lease it used
// comes back: under the race detector a sync.Pool drops a quarter of what
// it is given.
func TestLeasedLoopRetainsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pc := newPlannedCluster(t, 12, 6, 10, 10, 4)
	ctx, root := obs.StartSpan(context.Background(), "test.lease")
	defer root.End()
	ctx, cancel := context.WithCancel(ctx) // a round under a context that can end takes a hook
	defer cancel()
	cached, err := NewStore(pc.code, pc.addrs, pc.blockSize, withPool(t, fastOpts()), WithStripeCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	read := func(s *Store) func() error {
		return func() error {
			got, _, err := s.ReadFile(ctx, "f", len(pc.data))
			if err == nil && !bytes.Equal(got, pc.data) {
				err = errors.New("read returned different bytes")
			}
			return err
		}
	}
	flights := 0
	const gone = 2 // closed before the degraded read: its asks fail, and the repair's ask of it
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"a healthy batched read", read(pc.store)},
		{"a degraded read", func() error {
			pc.servers[gone].Close()
			return read(pc.store)()
		}},
		{"a repair", func() error {
			_, err := pc.store.Repair(ctx, "f", 0, 0)
			return err
		}},
		{"a batched repair", func() error { // its helpers' exchanges carry several names
			jobs := make([]repairJob, pc.stripes)
			for st := range jobs {
				jobs[st] = repairJob{file: "f", ref: BlockRef{Stripe: st, Block: 0}}
			}
			_, _, _, err := pc.store.repairMany(ctx, jobs, nil)
			return err
		}},
		{"a cached miss", func() error {
			cached.Cache().Invalidate("f")
			return read(cached)()
		}},
		{"a cached read that fails", func() error {
			if _, _, err := cached.ReadFile(ctx, "nobody wrote this", 1); !errors.Is(err, ErrTooFewSurvivors) {
				return fmt.Errorf("a cached read of a missing file: %v, want ErrTooFewSurvivors", err)
			}
			return nil
		}},
		{"a read that fails", func() error {
			if _, _, err := pc.store.ReadFile(ctx, "nobody wrote this", len(pc.data)); !errors.Is(err, ErrTooFewSurvivors) {
				return fmt.Errorf("a read of a missing file: %v, want ErrTooFewSurvivors", err)
			}
			return nil
		}},
	} {
		for try := 1; ; try++ {
			if err := op.run(); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			if takeLeases(t, op.name) > 0 {
				break
			}
			if try == 20 {
				t.Fatalf("no lease %s used came back in %d tries", op.name, try)
			}
		}
		flights += idleFlights(t, cached.Cache(), op.name)
	}
	if flights == 0 {
		t.Fatal("no cache flight came back to its shard's free list")
	}
}

// idleFlights walks, under each shard's lock, the flights c's shards keep
// for their next misses, reports every field one has set but the run func
// it was bound with and its done channel, and every slot past the free
// list's length that still points at a flight, and returns how many
// flights it walked.
func idleFlights(t *testing.T, c *stripecache.Cache, after string) (n int) {
	t.Helper()
	shards := reflect.ValueOf(c).Elem().FieldByName("shards")
	for i := range shards.Len() {
		mu := (*sync.Mutex)(unsafe.Pointer(shards.Index(i).FieldByName("mu").UnsafeAddr()))
		mu.Lock()
		defer mu.Unlock()
		idle := shards.Index(i).FieldByName("idle")
		all := idle.Slice3(0, idle.Cap(), idle.Cap())
		for j := range all.Len() {
			if j >= idle.Len() {
				if !all.Index(j).IsNil() {
					t.Errorf("after %s, shard %d's free list keeps a taken flight in slot %d", after, i, j)
				}
				continue
			}
			n++
			f := all.Index(j).Elem()
			for k := range f.NumField() {
				if name := f.Type().Field(k).Name; name != "run" && name != "done" && !f.Field(k).IsZero() {
					t.Errorf("after %s, a flight on shard %d's free list holds its %s", after, i, name)
				}
			}
		}
	}
	return n
}

// takeLeases takes every batch loop the free list holds, reports each
// pointer one holds, puts them back, and returns how many had run a batch.
func takeLeases(t *testing.T, after string) (used int) {
	t.Helper()
	var taken []*batchLoop
	defer func() {
		for _, l := range taken {
			loops.Put(l)
		}
	}()
	for range 64 {
		l := leaseLoop()
		taken = append(taken, l)
		if cap(l.active) == 0 {
			return used // a new one: the free list is empty
		}
		used++
		for _, path := range heldPointers(reflect.ValueOf(l).Elem(), "batchLoop") {
			t.Errorf("after %s, a lease on the free list holds %s", after, path)
		}
	}
	return used
}

// leaseOwned names the slices a lease owns, whose capacity it keeps: the
// loop's, its availability, its finished stripes and its exchanges' name
// lists (the names' wire bytes, destinations, verdicts and records), each
// stripe read's asks, scratch and solve list, and its round hook's
// connection list. Any other slice a
// lease holds is borrowed — a caller's output, a pooled buffer, a stripe's
// strikes — and must be nil.
var leaseOwned = map[string]bool{"reads": true, "tasks": true, "errs": true, "active": true, "avail": true, "exs": true, "lists": true, "wire": true, "bufs": true, "verdicts": true, "recs": true, "starts": true, "finished": true, "round": true, "scratch": true, "fetched": true, "conns": true}

// leaseBound names what a lease makes once for its life and keeps: the
// loop's bound source and finish starters and its idle round hook's done
// channel.
var leaseBound = map[string]bool{"sourceNext": true, "finishNext": true, "done": true}

// heldPointers lists the path of every pointer set below v: a pointer,
// interface, map, channel, function, non-empty string or borrowed slice —
// a slice field the lease does not own, or a slice held in one it does.
// It looks into each slice the lease owns up to its capacity, and into the
// round hook a lease keeps for its next round.
func heldPointers(v reflect.Value, path string) (held []string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if leaseBound[f.Name] {
				continue
			}
			if fv := v.Field(i); fv.Kind() == reflect.Slice && !leaseOwned[f.Name] {
				if !fv.IsNil() {
					held = append(held, path+"."+f.Name)
				}
				continue
			}
			held = append(held, heldPointers(v.Field(i), path+"."+f.Name)...)
		}
	case reflect.Array:
		for i := range v.Len() {
			held = append(held, heldPointers(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case reflect.Slice:
		all := v.Slice3(0, v.Cap(), v.Cap())
		for i := range all.Len() {
			e, at := all.Index(i), fmt.Sprintf("%s[%d]", path, i)
			if e.Kind() == reflect.Slice { // a buffer or a record in an owned list is borrowed
				if !e.IsNil() {
					held = append(held, at)
				}
				continue
			}
			held = append(held, heldPointers(e, at)...)
		}
	case reflect.Pointer:
		switch {
		case v.IsNil():
		case v.Type() == reflect.TypeFor[*roundHook]():
			held = append(held, heldPointers(v.Elem(), path)...)
		default:
			held = append(held, path)
		}
	case reflect.Interface, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		if !v.IsNil() {
			held = append(held, path)
		}
	case reflect.String:
		if v.Len() > 0 {
			held = append(held, path)
		}
	}
	return held
}

// rangeTap counts, as the server reads them, the range requests on its
// connections and those of length 0 (to the block's end). Each connection
// copies what the server reads into a pipe that a parser drains frame by
// frame.
type rangeTap struct {
	net.Listener
	ranges, whole atomic.Int64
}

func (l *rangeTap) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	go func() {
		fr := frame.NewReader(pr, maxPayload)
		for {
			h, err := fr.Next()
			if err == nil && h.Kind == opRange {
				m, _ := parseMeta(h.Kind, h.Meta)
				l.ranges.Add(1)
				if m.args[1] == 0 {
					l.whole.Add(1)
				}
			}
			if err != nil || fr.Payload(h, make([]byte, h.Len)) != nil {
				pr.CloseWithError(io.ErrClosedPipe) // the server's reads go on untapped
				return
			}
		}
	}()
	return &tapConn{Conn: c, w: pw}, nil
}

type tapConn struct {
	net.Conn
	w *io.PipeWriter
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.Write(p[:n])
	if err != nil {
		c.w.CloseWithError(err)
	}
	return n, err
}

// TestStoreReadsSendNoWholeBlockRange counts at the servers: a range of
// length 0 reads to its block's end, which no Store read means, and
// neither a healthy ReadFile nor a degraded one at (12,6,10,10) ever sends
// one — every range a read plan names has its length.
func TestStoreReadsSendNoWholeBlockRange(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	taps := make([]*rangeTap, code.N())
	servers, addrs := make([]*Server, code.N()), make([]string, code.N())
	for i := range taps {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		taps[i], servers[i] = &rangeTap{Listener: raw}, NewServer(code)
		if addrs[i], err = servers[i].StartListener(taps[i]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { servers[i].Close() })
	}
	blockSize := code.BlockAlign() * 16
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()
	data := make([]byte, 8*code.K()*blockSize)
	rand.New(rand.NewSource(41)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	// count sums the range requests the servers have read so far, once
	// every tap has caught up with what its server answered.
	count := func() (ranges, whole int64) {
		time.Sleep(20 * time.Millisecond)
		for _, tap := range taps {
			ranges, whole = ranges+tap.ranges.Load(), whole+tap.whole.Load()
		}
		return ranges, whole
	}
	for _, phase := range []string{"healthy", "degraded"} {
		if phase == "degraded" {
			servers[2].Close()
		}
		ranges0, _ := count()
		got, stats, err := store.ReadFile(ctx, "f", len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s read: err %v, identical %v", phase, err, bytes.Equal(got, data))
		}
		if phase == "degraded" && stats.StripesFallback == 0 {
			t.Fatalf("the degraded read planned no stripe around the closed source: %+v", stats)
		}
		ranges, whole := count()
		if ranges == ranges0 {
			t.Fatalf("%s read: the taps counted no range request", phase)
		}
		if whole != 0 {
			t.Errorf("%s read: %d range requests of length 0 reached the servers, want none", phase, whole)
		}
	}
}

// TestOneCarrierScratchIsPerClient: every exchange of a round rides one
// carrier, runNames, and one of one name takes its pooled client's own
// batch. Concurrent cache-miss reads (batches of one stripe, one name per
// exchange), degraded ones and one-stripe repairs share a store's pool, so
// under -race two exchanges never share a batch; and once they are done,
// no parked client's batch holds a name, a destination, a verdict or a
// record.
func TestOneCarrierScratchIsPerClient(t *testing.T) {
	pc := newPlannedCluster(t, 12, 6, 10, 10, 8, WithStripeCache(1<<10))
	ctx := context.Background()
	var wg sync.WaitGroup
	for round := range 2 {
		if round == 1 {
			pc.servers[1].Close()
		}
		for st := range pc.stripes {
			wg.Add(2)
			go func() {
				defer wg.Done()
				got, stats, err := pc.store.ReadFile(ctx, "f", len(pc.data))
				if err != nil || !bytes.Equal(got, pc.data) || stats.CacheHits != 0 {
					t.Errorf("round %d, read %d: err %v, %d cache hits", round, st, err, stats.CacheHits)
				}
			}()
			go func() {
				defer wg.Done()
				if _, err := pc.store.Repair(ctx, "f", st, 4); err != nil {
					t.Errorf("round %d, repair of stripe %d: %v", round, st, err)
				}
			}()
		}
		wg.Wait()
	}
	// The store's pool, and the pools the newcomers rebuilt on.
	pools := []*Pool{pc.store.pool}
	for _, srv := range pc.servers {
		pools = append(pools, srv.pool)
	}
	parked := make([]int, len(pools))
	for i, pool := range pools {
		pool.mu.Lock()
		for addr, pe := range pool.peers {
			for range cap(pe.free) {
				c := <-pe.free
				if c != nil {
					parked[i]++
					if holdsOneBatch(c) {
						t.Errorf("a client parked for %s keeps its one-name batch: %+v", addr, c.one)
					}
				}
				pe.free <- c
			}
		}
		pool.mu.Unlock()
	}
	if parked[0] == 0 {
		t.Fatal("the store parked no client")
	}
	if slices.Max(parked[1:]) == 0 {
		t.Fatal("no newcomer parked a helper client")
	}
}

// holdsOneBatch reports whether c's one-name batch holds anything but its
// name list's bytes, which the client keeps for its next exchange: a
// buffer, a verdict, a record or a name.
func holdsOneBatch(c *Client) bool {
	o := c.one
	return o.buf[0] != nil || o.verdict[0] != nil || o.rec[0] != nil || o.b.names.count != 0 || o.b.bufs != nil || o.b.verdicts != nil || o.b.recs != nil
}
