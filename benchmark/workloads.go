package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/obs"
	"carousel/internal/workload"
)

// workloadSpec is one named set of inputs. README.md records why each
// exists and which layer does its work.
type workloadSpec struct {
	name       string
	why        string
	small      bool  // 1024 single-stripe objects instead of 4 large files
	rewrites   bool  // keep two versions of every file and alternate them
	cacheBytes int64 // stripe cache budget; 0 leaves the default (off)
	uniform    bool  // small objects are drawn uniformly, not Zipf(1.1)

	// prepare runs after seeding: fault injection and warm-up.
	prepare func(ctx context.Context, f *fixture) error
	// op performs one Store operation, checks its output and records it.
	op func(ctx context.Context, f *fixture, c *client)
	// unrolled performs the same operation from the layers' public calls,
	// recording a span per call under the given root.
	unrolled func(ctx context.Context, u *unroller, trace, root uint64) (verified, error)
	// finish proves, after the window, what a single op cannot.
	finish func(ctx context.Context, f *fixture) error
}

var workloads = []*workloadSpec{
	{
		name:     "read_large",
		why:      "healthy p-source parallel read of 8 MiB files: no GF arithmetic, so the Store pipeline and RPC path do the work",
		prepare:  warmRead,
		op:       func(ctx context.Context, f *fixture, c *client) { readOp(ctx, f, c, false) },
		unrolled: unrolledRead,
		finish:   noFinish,
	},
	{
		name:     "write_large",
		why:      "the same files rewritten: encode is all gf256/codeplan work plus n Puts, so a read gain that costs writes shows",
		rewrites: true,
		prepare:  warmWrite,
		op:       writeOp,
		unrolled: unrolledWrite,
		finish:   storedBytesAreNOverK,
	},
	{
		name:     "read_degraded",
		why:      "read_large with one of the p sources closed: every stripe takes the any-k fallback and pays the dead-peer retries",
		prepare:  closeOneSourceAndWarm,
		op:       func(ctx context.Context, f *fixture, c *client) { readOp(ctx, f, c, true) },
		unrolled: unrolledDegradedRead,
		finish:   noFinish,
	},
	{
		name:     "recover_node",
		why:      "RecoverServer rebuilds one server's 128 blocks: helper chunks, RepairBlock and writeback at d/(d-k+1) traffic",
		prepare:  recordBlocksAndWarmRecover,
		op:       recoverOp,
		unrolled: unrolledRecover,
		finish:   readThroughRebuiltServer,
	},
	{
		name:       "swarm_hot",
		why:        "Zipf(1.1) reads of 24 KB objects whose hot set fits the 2 MiB stripe cache: the cache does most of the work",
		small:      true,
		cacheBytes: swarmCache,
		prepare:    warmSwarm,
		op:         func(ctx context.Context, f *fixture, c *client) { readOp(ctx, f, c, false) },
		unrolled:   unrolledCachedRead,
		finish:     noFinish,
	},
	{
		name:       "swarm_cold",
		why:        "the same objects drawn uniformly, working set 12x the cache: p small RPCs per read plus cache churn, benefit bypassed",
		small:      true,
		cacheBytes: swarmCache,
		uniform:    true,
		prepare:    warmSwarm,
		op:         func(ctx context.Context, f *fixture, c *client) { readOp(ctx, f, c, false) },
		unrolled:   unrolledCachedRead,
		finish:     noFinish,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sequence is the one seeded stream of object choices all clients of a
// run draw from: round-robin over large files, Zipf or uniform over small
// objects. n counts draws, so a workload can derive more from the ordinal.
type sequence struct {
	mu   sync.Mutex
	n    int
	next func(n int) int
}

func newSequence(spec *workloadSpec, seed int64, count int) *sequence {
	switch {
	case !spec.small:
		return &sequence{next: func(n int) int { return n % count }}
	case spec.uniform:
		rng := rand.New(rand.NewSource(seed))
		return &sequence{next: func(int) int { return rng.Intn(count) }}
	default:
		z := workload.NewZipf(swarmZipfS, count, seed)
		return &sequence{next: func(int) int { return z.Next() }}
	}
}

func (s *sequence) pick() (n, obj int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n = s.n
	s.n++
	return n, s.next(n)
}

// client is one closed-loop caller and the tallies of what it did.
type client struct {
	seq *sequence

	attempted, failed int64
	user, wire        int64 // bytes
	busy              time.Duration
	lat               []float64 // ms, one per op
	stripes, fallback int64
	balance           []float64 // recover_node: busiest helper's chunks / mean

	t0, t1 time.Time // the last op's timed interval
	opName string    // the Store call the last op made
	// traced run: latencies of the ops recorded as spans and of the rest
	recorded, unrecorded []float64
}

func (c *client) record(name string, t0, t1 time.Time, user, wire int64, ok bool) {
	c.opName, c.t0, c.t1 = name, t0, t1
	c.attempted++
	if !ok {
		c.failed++
	}
	c.user += user
	c.wire += wire
	d := t1.Sub(t0)
	c.busy += d
	c.lat = append(c.lat, float64(d.Nanoseconds())/1e6)
}

// readOp times one Store.ReadFile and checks the bytes against the CRC
// taken at seeding. degraded asserts every stripe took the fallback.
func readOp(ctx context.Context, f *fixture, c *client, degraded bool) {
	_, i := c.seq.pick()
	o := &f.objects[i]
	t0 := time.Now()
	data, st, err := f.store.ReadFile(ctx, o.name, o.size)
	t1 := time.Now()
	ok := err == nil && blockserver.Checksum(data) == o.crc[0]
	var wire int64
	if st != nil {
		wire = st.BytesFetched
		c.stripes += int64(f.stripes(o))
		c.fallback += int64(st.StripesFallback)
		if degraded && st.StripesFallback != f.stripes(o) {
			ok = false
		}
	}
	c.record("Store.ReadFile", t0, t1, int64(o.size), wire, ok)
}

// clientBytesTx is the program's own count of payload bytes its clients
// put on the wire. Server.Stats cannot stand in for it here: a rewrite in
// place leaves the stored byte total unchanged.
var clientBytesTx = obs.Default().Counter("blockserver_client_bytes_tx_total")

// writeOp times one Store.WriteFile of the version the file does not hold
// and proves it by reading the data ranges back over plain client calls.
func writeOp(ctx context.Context, f *fixture, c *client) {
	n, i := c.seq.pick()
	o := &f.objects[i]
	v := (n/len(f.objects) + 1) % 2
	tx0 := clientBytesTx.Value()
	t0 := time.Now()
	_, err := f.store.WriteFile(ctx, o.name, o.data[v])
	t1 := time.Now()
	wire := clientBytesTx.Value() - tx0
	ok := err == nil && f.rangeRead(ctx, o, f.scratch) == nil && blockserver.Checksum(f.scratch) == o.crc[v]
	c.record("Store.WriteFile", t0, t1, int64(o.size), wire, ok)
}

// rangeRead fetches object o's data ranges straight into dst, one range
// RPC per data-bearing block — a read path independent of Store.ReadFile.
func (f *fixture) rangeRead(ctx context.Context, o *object, dst []byte) error {
	for st := 0; st < f.stripes(o); st++ {
		for i := 0; i < codeP; i++ {
			lo, hi := f.code.DataRange(i, f.block)
			err := f.store.Pool().WithClient(ctx, f.addrs[i], func(cl *blockserver.Client) error {
				return cl.GetRangeInto(ctx, blockserver.BlockName(o.name, st, i), 0, dst[st*f.stripe+lo:st*f.stripe+hi])
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// recoverOp empties the failed server, times one Store.RecoverServer over
// every file, and checks each rebuilt block against its CRC as first
// encoded.
func recoverOp(ctx context.Context, f *fixture, c *client) {
	c.seq.pick()
	err := f.emptyFailedServer(ctx)
	files := make([]blockserver.FileSpec, len(f.objects))
	blocks := 0
	for i := range f.objects {
		o := &f.objects[i]
		files[i] = blockserver.FileSpec{Name: o.name, Size: o.size}
		blocks += f.stripes(o)
	}
	t0 := time.Now()
	rep, rerr := f.store.RecoverServer(ctx, failedServer, files)
	t1 := time.Now()
	ok := err == nil && rerr == nil && rep.BlocksRepaired == blocks
	if ok {
		ok = f.eachFailedBlock(ctx, func(cl *blockserver.Client, name string, file, st int) error {
			b, err := cl.Get(ctx, name)
			if err != nil {
				return err
			}
			defer blockserver.Recycle(b)
			if blockserver.Checksum(b) != f.blockCRC[file][st] {
				return fmt.Errorf("rebuilt block %s differs from the one first encoded", name)
			}
			return nil
		}) == nil
	}
	var user, wire int64
	if rep != nil {
		user, wire = rep.BytesRecovered, rep.TrafficBytes
		var most, total int64
		for _, n := range rep.HelperChunks {
			most = max(most, n)
			total += n
		}
		if total > 0 {
			c.balance = append(c.balance, float64(most)*float64(codeN-1)/float64(total))
		}
	}
	c.record("Store.RecoverServer", t0, t1, user, wire, ok)
}

// emptyFailedServer deletes every block the failed server holds, so that a
// rebuild which wrote nothing cannot pass for one that did.
func (f *fixture) emptyFailedServer(ctx context.Context) error {
	return f.eachFailedBlock(ctx, func(cl *blockserver.Client, name string, _, _ int) error {
		return cl.Delete(ctx, name)
	})
}

// eachFailedBlock calls fn for every block the failed server holds.
func (f *fixture) eachFailedBlock(ctx context.Context, fn func(cl *blockserver.Client, name string, file, st int) error) error {
	return f.store.Pool().WithClient(ctx, f.addrs[failedServer], func(cl *blockserver.Client) error {
		for i := range f.objects {
			o := &f.objects[i]
			for st := 0; st < f.stripes(o); st++ {
				if err := fn(cl, blockserver.BlockName(o.name, st, failedServer), i, st); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// warmOps runs n checked operations outside the window, so pooled
// connections are dialled, plans compiled and caches filled before timing.
func warmOps(ctx context.Context, f *fixture, n int) error {
	c := &client{seq: f.seq}
	for i := 0; i < n; i++ {
		f.spec.op(ctx, f, c)
	}
	if c.failed > 0 {
		return fmt.Errorf("%d of %d warm-up operations failed", c.failed, c.attempted)
	}
	return nil
}

func warmRead(ctx context.Context, f *fixture) error { return warmOps(ctx, f, len(f.objects)) }

func warmSwarm(ctx context.Context, f *fixture) error { return warmOps(ctx, f, swarmWarmup) }

func warmWrite(ctx context.Context, f *fixture) error {
	f.scratch = make([]byte, f.objects[0].size)
	// Two passes leave every file at version 0 again, so the window's first
	// pass writes version 1 whatever the warm-up did.
	return warmOps(ctx, f, 2*len(f.objects))
}

func closeOneSourceAndWarm(ctx context.Context, f *fixture) error {
	if err := f.servers[deadServer].Close(); err != nil {
		return err
	}
	return warmOps(ctx, f, 1)
}

func recordBlocksAndWarmRecover(ctx context.Context, f *fixture) error {
	f.blockCRC = make([][]uint32, len(f.objects))
	for i := range f.objects {
		f.blockCRC[i] = make([]uint32, f.stripes(&f.objects[i]))
	}
	err := f.eachFailedBlock(ctx, func(cl *blockserver.Client, name string, file, st int) error {
		b, err := cl.Get(ctx, name)
		if err != nil {
			return err
		}
		f.blockCRC[file][st] = blockserver.Checksum(b)
		blockserver.Recycle(b)
		return nil
	})
	if err != nil {
		return err
	}
	return warmOps(ctx, f, 1)
}

func noFinish(context.Context, *fixture) error { return nil }

// storedBytesAreNOverK checks, after the rewrites, that the servers hold
// exactly n blocks per stripe — n/k stored bytes per user byte.
func storedBytesAreNOverK(_ context.Context, f *fixture) error {
	var stored, want int64
	for _, s := range f.servers {
		_, b, _ := s.Stats()
		stored += b
	}
	for i := range f.objects {
		want += int64(f.stripes(&f.objects[i]) * codeN * f.block)
	}
	if stored != want {
		return fmt.Errorf("servers hold %d bytes, want %d", stored, want)
	}
	return nil
}

// readThroughRebuiltServer proves the rebuilt blocks with a read that
// must use the rebuilt server as one of its p sources.
func readThroughRebuiltServer(ctx context.Context, f *fixture) error {
	for i := range f.objects {
		o := &f.objects[i]
		data, st, err := f.store.ReadFile(ctx, o.name, o.size)
		if err != nil {
			return err
		}
		if st.StripesParallel != f.stripes(o) {
			return fmt.Errorf("%s: %d of %d stripes read from all p sources", o.name, st.StripesParallel, f.stripes(o))
		}
		if blockserver.Checksum(data) != o.crc[0] {
			return fmt.Errorf("%s: bytes read through the rebuilt server differ from those seeded", o.name)
		}
	}
	return nil
}
