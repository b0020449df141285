package blockserver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"carousel/internal/bufpool"
	"carousel/internal/carousel"
	"carousel/internal/obs"
	"carousel/internal/stripecache"
)

// Store read/repair metrics. These are the cluster-level counterparts of
// the per-call ReadStats: every ReadStats field increments one of them, so
// a single scrape reflects the same taxonomy the fault tests assert on.
var (
	mStripesParallel = obs.Default().Counter("store_parallel_stripes_total")
	mStripesFallback = obs.Default().Counter("store_fallback_stripes_total")
	// Cache-path counterparts: stripes served straight from the stripe
	// cache (no network) and stripes whose miss coalesced onto another
	// caller's in-flight fetch.
	mCacheHitStripes  = obs.Default().Counter("store_cache_hit_stripes_total")
	mCoalescedStripes = obs.Default().Counter("store_coalesced_stripes_total")
	mCorruptSources   = obs.Default().Counter("store_corrupt_sources_total")
	mBytesFetched     = obs.Default().Counter("store_bytes_fetched_total")
	mReadNS           = obs.Default().Histogram("store_read_ns")
	mRepairs          = obs.Default().Counter("store_repairs_total")
	mRepairTraffic    = obs.Default().Counter("store_repair_traffic_bytes_total")
	mSparePromotions  = obs.Default().Counter("store_spare_promotions_total")
)

// Store-path SLOs: latency target plus availability objective, exported as
// slo_* counters and burn-rate/budget gauges (see obs.NewSLO). Each SLO's
// slo_latency_ns{slo=...} window is also the operation's tail-latency
// surface on /metrics (_p50/_p99/_p999). The targets are deliberately
// loose defaults — the point of the error budget is the trend, and a
// production deployment tunes them by editing these.
var (
	sloRead   = obs.NewSLO(obs.Default(), "store_read", 500*time.Millisecond, 0.999)
	sloWrite  = obs.NewSLO(obs.Default(), "store_write", time.Second, 0.999)
	sloRepair = obs.NewSLO(obs.Default(), "store_repair", 5*time.Second, 0.99)
)

// stripesInFlight is how many stripes a WriteFile batch carries, each
// server's put exchange carrying a block of every one (reads, repairs and
// scrubs size their batches by bytes instead, and keep at least this many
// stripes in flight: batchWidth). Why 4: enough to hide one stripe's
// network round trip behind its neighbours' encode or decode,
// without flooding the peer set — a stripe in flight holds up to n pooled
// blocks.
const stripesInFlight = 4

// Store stripes files across n block servers with a Carousel code: block i
// of every stripe lives on server i. Reads pull original data from up to p
// servers in parallel over TCP; repairs move only the optimal chunk from
// each of d helpers.
//
// Reads and repairs run one hedged, straggler-tolerant stripe loop
// (runBatch) over batches of stripes: each stripe plans on the blocks
// available, the batch fetches what the plans name in one exchange per
// source under a hedge deadline, and each stripe strikes for itself every
// source that fails or is still outstanding at the deadline, keeps
// everything that did land, and re-plans around the rest. A read's plan
// is the code's read plan (carousel.PlanRead) — the paper's
// replacement-block scheme or its parity-unit extension, k blocks' worth
// of bytes either way — and a repair's is d helpers in ring order. Peers
// the pool could not dial are planned around from the start, and a stripe
// left with nothing but stragglers waits for them unhedged. Corrupt blocks
// (detected by the servers' CRC32C verification) are struck the same way
// and can be regenerated with Scrub.
type Store struct {
	code      *carousel.Code
	addrs     []string
	blockSize int
	hedge     time.Duration
	pool      *Pool              // shared by reads, writes, scrub, and repair; its options are every client's
	ownsPool  bool               // the pool is NewStore's own, which Close closes
	healthy   *carousel.ReadPlan // the plan with every block available: what a stripe reads while nothing is known bad

	// home is the newcomer this store was built for to run one rebuild
	// request on, over the newcomer's pool (see Server.rebuild): the
	// server each block it rebuilds is committed to. Nil for every store
	// NewStore builds, which sends its repairs to their newcomers.
	home *Server

	// cache, when non-nil, serves hot stripes from memory with singleflight
	// miss coalescing. Nil (the default) keeps the read path byte-identical
	// to the uncached store — every read hits the network.
	cache *stripecache.Cache
	fetch func(ctx context.Context, dst []byte) error // fetchStripe, bound once for the cache's flights
}

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithPool runs the store over p, whose client options (timeouts, retry)
// every exchange it makes runs under, instead of over a default pool of
// its own. Close leaves p open: it is its owner's to close.
func WithPool(p *Pool) StoreOption {
	return func(s *Store) { s.pool = p }
}

// defaultHedge is how long a stripe waits for straggling sources unless
// WithHedgeDelay says otherwise.
const defaultHedge = 500 * time.Millisecond

// WithHedgeDelay sets how long a stripe read waits for straggling sources
// before striking them and re-planning around them (default 500ms).
func WithHedgeDelay(d time.Duration) StoreOption {
	return func(s *Store) {
		if d > 0 {
			s.hedge = d
		}
	}
}

// WithStripeCache enables the hot-read stripe cache with the given byte
// budget: decoded stripes are kept in memory (CLOCK eviction behind a
// TinyLFU admission filter, per-file version invalidation) and N
// concurrent misses on one stripe coalesce into a single fetch+decode. A
// stripe larger than budget/16, one shard's share, is never cached. Zero
// or negative leaves the cache off. The cache is per-Store and
// deliberately opt-in — fault-injection tests and repair tooling want
// every read to exercise the network.
func WithStripeCache(bytes int64) StoreOption {
	return func(s *Store) {
		if bytes > 0 {
			s.cache = stripecache.New(bytes)
		} else {
			s.cache = nil
		}
	}
}

// Cache exposes the store's stripe cache (nil when disabled) for stats
// surfacing and tests.
func (s *Store) Cache() *stripecache.Cache { return s.cache }

// NewStore builds a store over n server addresses.
func NewStore(code *carousel.Code, addrs []string, blockSize int, opts ...StoreOption) (*Store, error) {
	if len(addrs) != code.N() {
		return nil, fmt.Errorf("blockserver: store needs %d servers, got %d", code.N(), len(addrs))
	}
	if blockSize <= 0 || blockSize%code.BlockAlign() != 0 {
		return nil, fmt.Errorf("blockserver: block size %d must be a positive multiple of %d", blockSize, code.BlockAlign())
	}
	s := &Store{
		code:      code,
		addrs:     addrs,
		blockSize: blockSize,
		hedge:     defaultHedge,
	}
	for _, opt := range opts {
		opt(s)
	}
	all := make([]bool, len(addrs))
	for i := range all {
		all[i] = true
	}
	var err error
	if s.healthy, err = code.PlanRead(all, blockSize); err != nil {
		return nil, err
	}
	if s.pool == nil {
		s.pool, s.ownsPool = NewPool(addrs, PoolOptions{}), true
	}
	if s.cache != nil {
		s.fetch = s.fetchStripe
	}
	return s, nil
}

// Close closes the pool NewStore built for the store, and its pooled
// connections; calls after Close fail with ErrPoolClosed. A store over a
// pool WithPool gave it leaves that pool open, and serves over it until
// its owner closes it.
func (s *Store) Close() {
	if s.ownsPool {
		s.pool.Close()
	}
}

// Pool exposes the store's connection pool so that code addressing
// blocks directly (repair tooling, the benchmark's unrolled paths) fetches
// over the same bounded connection set.
func (s *Store) Pool() *Pool {
	return s.pool
}

// BlockName returns the key under which the Store places block idx of the
// given stripe on server idx — exported for tools and tests that address
// blocks directly through a Client. The Store itself writes each name
// straight into its request (nameList.addBlock).
func BlockName(file string, stripe, idx int) string {
	var a [64]byte // the name is built here, and copied once into the string
	return string(appendBlockName(a[:0], file, stripe, idx))
}

// appendBlockName appends BlockName(file, stripe, idx) to dst.
func appendBlockName(dst []byte, file string, stripe, idx int) []byte {
	dst = strconv.AppendInt(append(append(dst, file...), '/'), int64(stripe), 10)
	return strconv.AppendInt(append(dst, '/'), int64(idx), 10)
}

// stripesOf returns how many stripes hold size bytes of the named file.
// Sizes reach the store from outside the process (the master's journal,
// carouselctl's arguments), so a non-positive one is refused here instead
// of becoming a negative slice length downstream.
func (s *Store) stripesOf(name string, size int) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("blockserver: %s: non-positive size %d", name, size)
	}
	stripeData := s.code.K() * s.blockSize
	return (size + stripeData - 1) / stripeData, nil
}

// pipeline is the one bounded stage: it runs fn(ctx, i) for i in [0, n)
// with at most depth calls in flight, and stops launching at the first
// failure or when ctx ends; calls already in flight see their context
// cancelled and are waited for. errs[i] is call i's result for
// i < launched; later slots never ran. A pass of one item runs it on the
// caller's goroutine, under ctx.
func pipeline(ctx context.Context, n, depth int, fn func(ctx context.Context, i int) error) (errs []error, launched int) {
	if n == 1 && ctx.Err() == nil {
		return []error{fn(ctx, 0)}, 1
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs = make([]error, n)
	sem := make(chan struct{}, max(depth, 1))
	var wg sync.WaitGroup
	for launched < n {
		select {
		case sem <- struct{}{}:
		case <-pctx.Done():
		}
		if pctx.Err() != nil {
			break
		}
		i := launched
		launched++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if errs[i] = fn(pctx, i); errs[i] != nil {
				cancel() // later items are pointless once one failed
			}
		}()
	}
	wg.Wait()
	return errs, launched
}

// fanOut runs fn(i) for each i in [0, n), each on a goroutine of its own,
// and waits for every call: errs[i] is call i's result.
func fanOut(n int, fn func(i int) error) (errs []error) {
	errs = make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errs
}

// pipelineErr picks the failure a pipeline pass reports, and the item it
// belongs to. A failing item cancels its neighbours, so the lowest-index
// error is often a knock-on context.Canceled; the root cause is the first
// error that is not one. Failing that it is the first error of any kind
// (the caller itself cancelled), and with no error but items unlaunched,
// the reason the caller's context ended.
func pipelineErr(ctx context.Context, errs []error, launched int) (int, error) {
	first := -1
	for i, err := range errs[:launched] {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return i, err
		}
		if first < 0 {
			first = i
		}
	}
	if first >= 0 {
		return first, errs[first]
	}
	if launched < len(errs) {
		return launched, classify(ctx.Err())
	}
	return 0, nil
}

// WriteFile encodes data into stripes and uploads block i of every stripe
// to server i. Its stripes run in batches of stripesInFlight consecutive
// stripes (writeBatch), each sending every server its blocks of the batch
// in one put exchange, and batchWidth batches are in flight, so one
// batch's GF(2^8) work overlaps another's exchanges. It returns the stripe
// count.
func (s *Store) WriteFile(ctx context.Context, name string, data []byte) (_ int, rerr error) {
	stripes, err := s.stripesOf(name, len(data))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if s.cache != nil {
		// Bump the file's write generation before touching any block (readers
		// mid-flight insert under the old, now-unreachable version) and again
		// after the last upload (anything cached during the mutation window is
		// discarded too). Between the bumps a read may fetch torn bytes, but
		// it caches them under a version no future read will ever look up.
		s.cache.Invalidate(name)
		defer s.cache.Invalidate(name)
	}
	ctx, sp := obs.ChildSpan(ctx, "store.write")
	sp.SetAttr("file", name).SetAttr("bytes", len(data)).SetAttr("stripes", stripes)
	defer func() {
		if rerr != nil {
			sp.SetAttr("error", rerr.Error())
		}
		sp.End()
		sloWrite.ObserveSince(t0, rerr)
	}()
	batches := (stripes + stripesInFlight - 1) / stripesInFlight
	errs, launched := pipeline(ctx, batches, batchWidth(stripes, batches), func(ctx context.Context, b int) error {
		return s.writeBatch(ctx, name, data, b*stripesInFlight, min((b+1)*stripesInFlight, stripes))
	})
	if b, err := pipelineErr(ctx, errs, launched); err != nil {
		return 0, fmt.Errorf("blockserver: stripes %d..%d: %w", b*stripesInFlight, min((b+1)*stripesInFlight, stripes)-1, err)
	}
	return stripes, nil
}

// writeBatch encodes stripes [lo, hi) concurrently, each into one pooled
// slab of n blocks (block i at offset i·blockSize) and its stripe record,
// then sends each server its block of every stripe in one put exchange,
// each block with its CRC and its stripe's record. The slabs go back to
// the pool only after all n exchanges have returned, whether they
// succeeded, retried, failed or were cancelled: until then a put may still
// be reading them.
func (s *Store) writeBatch(ctx context.Context, name string, data []byte, lo, hi int) error {
	n, bs, m := s.code.N(), s.blockSize, hi-lo
	slabs := make([][]byte, m)
	defer func() {
		for _, slab := range slabs {
			bufpool.Put(slab)
		}
	}()
	// The batch's stripe records, one slice: stripe j's at j·n.
	crcs, recs := make([]uint32, m*n), make([][]uint32, m)
	for j := range slabs {
		slabs[j], recs[j] = bufpool.Get(n*bs), crcs[j*n:(j+1)*n:(j+1)*n]
	}
	if err := errors.Join(fanOut(m, func(j int) error {
		return s.encodeStripe(data, lo+j, slabs[j], recs[j])
	})...); err != nil {
		return err
	}
	names, blocks, bcrcs := serverLists(name, n, lo, hi), make([][]byte, n*m), make([]uint32, n*m)
	sent := recs // a put meta's record width is one byte: at n = 256 the blocks go without
	if n > math.MaxUint8 {
		sent = nil
	}
	for i := range n {
		for j, slab := range slabs {
			blocks[i*m+j], bcrcs[i*m+j] = slab[i*bs:(i+1)*bs], recs[j][i]
		}
	}
	return errors.Join(fanOut(n, func(i int) error {
		return s.pool.WithClient(ctx, s.addrs[i], func(c *Client) error {
			return c.puts(ctx, names[i], blocks[i*m:(i+1)*m], bcrcs[i*m:(i+1)*m], sent)
		})
	})...)
}

// serverLists returns the name lists of stripes [lo, hi) of file by
// server: list i names block i of each stripe, in stripe order. The lists
// share one buffer of exactly their size.
func serverLists(file string, n, lo, hi int) []nameList {
	var a [20]byte
	digits := func(x int) int { return len(strconv.AppendInt(a[:0], int64(x), 10)) }
	m, size := hi-lo, 0
	for st := lo; st < hi; st++ {
		size += n * (4 + len(file) + digits(st)) // nameLen(2) file '/' st '/'
	}
	for i := range n {
		size += m * digits(i)
	}
	buf, lists := make([]byte, 0, size), make([]nameList, n)
	for i := range lists {
		l := &lists[i]
		l.wire = buf[len(buf):] // appends land in buf, which has room for every list
		for st := lo; st < hi; st++ {
			l.addBlock(file, st, i)
		}
		buf = buf[:len(buf)+len(l.wire)]
		l.wire = l.wire[:len(l.wire):len(l.wire)]
	}
	return lists
}

// encodeStripe encodes stripe st of data into slab's n blocks, and
// checksums each into rec, the stripe's record, while it is still in
// cache. The shards alias the caller's data — the encode only reads them —
// except on a short final stripe, which is zero-padded in a pooled
// scratch.
func (s *Store) encodeStripe(data []byte, st int, slab []byte, rec []uint32) error {
	k, n, bs := s.code.K(), s.code.N(), s.blockSize
	stripeData := k * bs
	lo := st * stripeData
	src := data[lo:min(lo+stripeData, len(data))]
	var pad []byte
	if len(src) < stripeData {
		pad = bufpool.Get(stripeData)
		clear(pad[copy(pad, src):])
		src = pad
	}
	shards, blocks := make([][]byte, k), make([][]byte, n)
	for i := range shards {
		shards[i] = src[i*bs : (i+1)*bs]
	}
	for i := range blocks {
		blocks[i] = slab[i*bs : (i+1)*bs]
	}
	err := s.code.EncodeInto(shards, blocks)
	bufpool.Put(pad) // the encode has read it; nil when the stripe was full
	if err != nil {
		return err
	}
	for i, b := range blocks {
		rec[i] = Checksum(b)
	}
	return nil
}

// ReadStats reports how a ReadFile was served — the observability hook the
// fault tests assert on. Every field increments the matching store_*
// counter in the process registry as it is recorded, and TraceID links a
// traced call to its span tree, so the per-call struct, the scraped
// metrics, and the trace are one consistent surface.
type ReadStats struct {
	// StripesParallel counts stripes served verbatim by the data prefixes
	// of all p data-bearing blocks.
	StripesParallel int
	// StripesFallback counts every other stripe: a data-bearing block was
	// presumed down, failed or straggled, and the stripe was completed
	// from replacement or patch units. It counts planned degraded stripes
	// too; what tells those from a rediscovered failure is BytesFetched ==
	// size and no new dial in the pool's DialCounts.
	StripesFallback int
	// CacheHits counts stripes served straight from the stripe cache — no
	// network, no decode. A fully-warm read shows CacheHits == stripes and
	// dials nobody.
	CacheHits int
	// CoalescedStripes counts stripes whose miss piggybacked on another
	// caller's in-flight fetch of the same stripe (singleflight).
	CoalescedStripes int
	// CorruptSources counts source reads rejected by checksum
	// verification.
	CorruptSources int
	// BytesFetched counts the payload bytes of completed fetches. A stream
	// cut short by the hedge deadline or a cancellation counts nothing,
	// however much of it had arrived.
	BytesFetched int64
	// TraceID is the trace of the caller's span the read ran under — fetch
	// its tree with obs.DefaultTracer().Spans(TraceID) or /debug/traces —
	// or 0 when the caller traced nothing and the read recorded no span.
	TraceID uint64

	// mu serializes the increment methods when the read's batches run
	// through the pipeline, whose goroutines fold results into one
	// ReadStats; a read of one batch, folded on the caller's goroutine
	// alone, has none. A pointer keeps the struct copyable (tests format a
	// dereferenced copy with %+v).
	mu *sync.Mutex
}

// count bumps one of the per-call tallies above together with its
// process-wide counter, so the struct and the scrape cannot drift apart.
func (rs *ReadStats) count(field *int, c *obs.Counter) {
	rs.lock()
	*field++
	rs.unlock()
	c.Inc()
}

// fold adds what one read batch, or a flight's fetch, tallied to the stats.
func (rs *ReadStats) fold(t *stripecache.Tally) {
	rs.lock()
	rs.BytesFetched += t.Bytes
	rs.CorruptSources += t.Corrupt
	rs.StripesParallel += t.Parallel
	rs.StripesFallback += t.Fallback
	rs.unlock()
}

func (rs *ReadStats) lock() {
	if rs.mu != nil {
		rs.mu.Lock()
	}
}

func (rs *ReadStats) unlock() {
	if rs.mu != nil {
		rs.mu.Unlock()
	}
}

// Path summarizes which path served the read.
func (rs *ReadStats) Path() string {
	switch {
	case rs.StripesFallback == 0:
		return "parallel"
	case rs.StripesParallel == 0:
		return "fallback"
	default:
		return "mixed"
	}
}

// ReadFile reassembles size bytes of the file. Its stripes run in batches
// of the stripe loop (readBatch): as many consecutive stripes as fit in
// batchBytes, so a round asks each source for every stripe of the batch
// that planned it in one exchange, and batchWidth batches are in flight,
// so one batch's exchanges overlap another's decode. Each stripe decodes
// directly into its slot of a single presized output buffer (no append
// growth, no final copy). With a stripe cache each stripe is a batch of
// its own, because the cache coalesces misses stripe by stripe. The
// returned stats report how each stripe was served and how many fresh
// connections the read cost; they are nil only when size is refused (a
// non-positive size names no file WriteFile could have created).
func (s *Store) ReadFile(ctx context.Context, name string, size int) (_ []byte, _ *ReadStats, rerr error) {
	stripes, err := s.stripesOf(name, size)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	ctx, sp := obs.ChildSpan(ctx, "store.read")
	if sp != nil { // an untraced read boxes no attribute
		sp.SetAttr("file", name).SetAttr("size", size).SetAttr("stripes", stripes)
	}
	defer func() {
		if rerr != nil {
			sp.SetAttr("error", rerr.Error())
		}
		sp.End()
		mReadNS.ObserveSince(t0)
		sloRead.ObserveSince(t0, rerr)
	}()
	stats := &ReadStats{TraceID: sp.TraceID()}
	stripeData := s.code.K() * s.blockSize
	out := make([]byte, stripes*stripeData)
	per := 1
	if s.cache == nil {
		per = max(1, batchBytes/stripeData)
	}
	batches := (stripes + per - 1) / per
	if batches == 1 && ctx.Err() == nil { // a one-stripe cached read, or a small file: no pipeline
		err = s.readPart(ctx, name, 0, per, stripes, out, stats)
	} else {
		stats.mu = new(sync.Mutex)
		errs, launched := pipeline(ctx, batches, batchWidth(stripes, batches), func(ctx context.Context, b int) error {
			return s.readPart(ctx, name, b, per, stripes, out, stats)
		})
		var b int
		if b, err = pipelineErr(ctx, errs, launched); err != nil && b == launched {
			err = fmt.Errorf("stripe %d: %w", b*per, err) // the caller's context ended before this batch began
		}
	}
	if err != nil {
		return nil, stats, fmt.Errorf("blockserver: %w", err)
	}
	// The verify stage: the per-block CRC verdicts arrived in-band with the
	// fetches; here the reassembled file is checked for completeness and the
	// corruption tally is pinned onto the trace.
	if sp != nil {
		_, vsp := obs.ChildSpan(ctx, "verify")
		vsp.SetAttr("bytes", size).SetAttr("corrupt_sources", stats.CorruptSources).End()
		sp.SetAttr("path", stats.Path())
	}
	return out[:size], stats, nil
}

// readPart reads batch b of the file, stripes [b·per, (b+1)·per) short of
// stripes, into its slots of out: through the stripe cache, whose batches
// are one stripe each, or as one read batch, whose tally it folds into
// stats.
func (s *Store) readPart(ctx context.Context, name string, b, per, stripes int, out []byte, stats *ReadStats) error {
	stripeData := s.code.K() * s.blockSize
	lo, hi := b*per, min((b+1)*per, stripes)
	dst := out[lo*stripeData : hi*stripeData]
	st, err := lo, error(nil)
	if s.cache != nil {
		err = s.readStripeCached(ctx, name, lo, dst, stats)
	} else {
		var t stripecache.Tally
		st, err = s.readBatch(ctx, name, lo, hi, dst, &t, nil)
		stats.fold(&t)
	}
	if err != nil {
		return fmt.Errorf("stripe %d: %w", st, err)
	}
	return nil
}

// readStripeCached serves one stripe through the stripe cache: a hit
// copies the decoded stripe into dst with no network traffic, and a miss
// runs the normal hedged fetch — a read batch of one (fetchStripe) —
// exactly once per in-flight stripe (concurrent misses coalesce),
// inserting the result for the next reader. Only the caller that started
// the flight and received its result folds the fetch's tally into its
// stats.
func (s *Store) readStripeCached(ctx context.Context, name string, st int, dst []byte, stats *ReadStats) error {
	cctx, csp := obs.ChildSpan(ctx, "cache")
	csp.SetAttr("stripe", st)
	var t stripecache.Tally
	hit, coalesced, err := s.cache.GetOrFetch(cctx, name, st, dst, &t, s.fetch)
	stats.fold(&t)
	csp.SetAttr("hit", hit).SetAttr("coalesced", coalesced)
	if err != nil {
		csp.SetAttr("error", err.Error())
	}
	csp.End()
	switch {
	case err != nil:
		return err
	case hit:
		stats.count(&stats.CacheHits, mCacheHitStripes)
	case coalesced:
		stats.count(&stats.CoalescedStripes, mCoalescedStripes)
	}
	return nil
}

// strike is what one stripe operation holds against a block.
type strike uint8

const (
	slow strike = iota + 1 // outstanding at the hedge deadline: passed over, unless nothing else is left
	dead                   // failed: refused, absent, corrupt, or a broken exchange
)

// stripeOp is what an operation on one stripe holds across the rounds of
// the one stripe loop (runBatch) — plan, round, strike, re-plan — for a
// read and a repair alike: the stripe, its sources' strikes, and the
// current round's asks and their outcomes. struck stays nil until a fetch
// fails, so a healthy stripe allocates none of it.
type stripeOp struct {
	s        *Store
	ctx      context.Context // the stripe's own: its probes and spans run under it
	file     string
	st       int
	round    []ask    // this round's asks, and their outcomes
	struck   []strike // by block
	firstErr error
	late     int   // rounds that ended with a straggler outstanding
	distrust bool  // plan on peers the pool presumes down, too
	unhedged bool  // the slow strikes were cleared: rounds wait on ctx alone
	err      error // the outcome, once the stripe is done
}

// stripe returns the stripeOp every stripeTask embeds.
func (op *stripeOp) stripe() *stripeOp { return op }

// plan hands try the blocks the stripe can plan on: the pool's peer memory
// less the blocks struck so far, marked in avail, the loop's one slice of n
// (try keeps none of it), or nil — every block — while nobody is presumed
// down and nothing is struck, for the price of one atomic load. A
// half-open probe is a source like any other: one that does not connect
// within the hedge delay is not worth planning on (Pool.reachable). When
// try finds them too few, the stripe first stops trusting the peer
// memory — a presumed-down peer is a last resort, not a verdict — and then,
// if stragglers are among the struck, waits for them (unhedge). So does a
// stripe whose second round straggled: one slow peer is planned around, a
// slow cluster is not, and each further hedged round would only add its
// deadline to the stripe's latency.
func (op *stripeOp) plan(avail []bool, try func(avail []bool) error) error {
	s := op.s
	if op.late > 1 && !op.unhedged {
		op.unhedge() // the re-plan around the stragglers straggled too
	}
	for {
		memory := !op.distrust && s.pool.anyDown()
		var marked []bool
		if memory || op.struck != nil {
			marked = avail
			for i, addr := range s.addrs {
				marked[i] = (op.struck == nil || op.struck[i] == 0) && (!memory || s.pool.reachable(op.ctx, addr, s.hedge))
			}
		}
		err := try(marked)
		switch {
		case err == nil:
			return nil
		case memory:
			op.distrust = true
		case !op.unhedged && slices.Contains(op.struck, slow):
			op.unhedge()
		default:
			return fmt.Errorf("%w: %v (first failure: %v)", ErrTooFewSurvivors, err, op.firstErr)
		}
	}
}

// unhedge clears the stripe's slow strikes, keeping its dead ones, and
// lifts the hedge deadline from its rounds: the sources are slow, not gone,
// and picking which to wait for is what the plan does anyway. A cluster
// that is slow everywhere is read and repaired slowly rather than not at
// all, bounded only by the caller's context. It happens at most once per
// stripe.
func (op *stripeOp) unhedge() {
	op.unhedged = true
	for i, st := range op.struck {
		if st == slow {
			op.struck[i] = 0
		}
	}
}

// strike records a failed fetch of block b for this stripe only — a
// timeout slow (passed over, but waited for if it comes to that), anything
// else dead — and reports whether it was a straggler. Reads and repairs
// strike blocks here and nowhere else. Whether the peer is remembered as
// down beyond it is the pool's call, made on dial failures alone: a live
// server missing one block is asked again by the next stripe.
func (op *stripeOp) strike(b int, ferr error) (late bool) {
	if op.struck == nil {
		op.struck, op.firstErr = make([]strike, len(op.s.addrs)), ferr
	}
	if errors.Is(ferr, ErrTimeout) && op.struck[b] != dead {
		op.struck[b] = slow
		return true
	}
	op.struck[b] = dead
	return false
}

// settle settles each of the stripe's asks — its exchange's error, or
// else its own verdict — and strikes the block of every one that failed.
// It reports whether any did.
func (op *stripeOp) settle(exs []batchExchange) (short bool) {
	late := false
	for k := range op.round {
		a := &op.round[k]
		if err := exs[a.ex].err; err != nil {
			a.err = err
		}
		if a.err != nil {
			late = op.strike(a.block, a.err) || late
			short = true
		}
	}
	if late {
		op.late++
	}
	return short
}

// ask is one thing a stripe wants from one source in a round: the op's
// answer for the stripe's block on source block — a range (args: offset,
// length) or a helper chunk (args: helper, failed) — landing in buf, and a
// chunk's stripe record in rec's storage; the exchange it rides (group);
// and its outcome: its verdict, or its exchange's error (settle).
type ask struct {
	block int
	args  [2]uint32
	buf   []byte
	rec   []uint32
	ex    int
	err   error
}

// stripeTask is one stripe of a batch, as the stripe loop drives it: a
// read (stripeRead) or a repair (stripeRepair).
type stripeTask interface {
	stripe() *stripeOp
	// try plans the stripe on the blocks avail marks (nil: every block).
	try(avail []bool) error
	// asks lists what the plan needs that has not landed yet, and names
	// the plan's kind for the round's fetch span.
	asks() (mode string, round []ask)
	// landed takes the round's outcome of each ask, once the failures are
	// struck.
	landed()
	// finish completes a stripe whose every ask has landed.
	finish() error
	// done ends the stripe, exactly once, after its outcome is in err.
	done()
}

// batchExchange is one source's part of a batch round: one request for the
// same range, or the same helper's chunks, of the block of every stripe
// that asked for it, and the exchange's own error. Each name's verdict
// goes to its ask.
type batchExchange struct {
	block    int
	args     [2]uint32
	unhedged bool // carries a stripe that waits out its stragglers
	n        int  // the asks it carries
	err      error
}

// batchLoop is a batch's stripe-loop state (runBatch): its stripes — as
// reads, for a read batch, and as tasks — their outcomes, the stripes still
// active, the availability a stripe plans on, the round's exchanges and
// the name list of each, and the round on the wire: its store, op,
// context, hedge, cancellation hook and sources. A batch leases one from
// loops and gives it back as it returns (release), so once the free list
// is warm a batch allocates none of it: the slices, and each stripe read's
// asks and solve list, keep their capacity from batch to batch. The free
// list is process-wide, not a Store's, because a newcomer builds a Store
// for each rebuild request it runs.
type batchLoop struct {
	reads     []stripeRead
	tasks     []stripeTask
	errs      []error
	active    []int
	avail     []bool // by block: what the stripe planning now may plan on (stripeOp.plan)
	exs       []batchExchange
	lists     []nameBatch    // by exchange: the names, destinations, verdicts and records of one carrying several
	finishing sync.WaitGroup // the stripes finishing on goroutines of their own

	// The stripes whose asks all landed, by task, in the order they did
	// (finished), and how many of them goroutines have taken (finNext).
	// Each goroutine runs finishNext, bound once for the life of the loop.
	finished   []int
	finNext    atomic.Int32
	finishNext func()

	s      *Store
	op     byte
	flight *stripecache.Flight // the cache flight the batch fetches for, whose abort stops its rounds
	ctx    context.Context     // the round's
	hedge  time.Time
	hook   *roundHook // the round's; nil while neither its context nor a flight can stop it
	idle   *roundHook // a hook nothing fired, for the next round that needs one
	wg     sync.WaitGroup

	// The round's sources: the first exchange of each (starts), and how
	// many of them goroutines have taken (next). Each goroutine runs
	// sourceNext, bound once for the life of the loop.
	starts     []int
	next       atomic.Int32
	sourceNext func()
}

// loops is the free list of batch loops.
var loops = sync.Pool{New: func() any {
	l := new(batchLoop)
	l.sourceNext, l.finishNext = l.takeSource, l.takeFinish
	return l
}}

// leaseLoop leases a batch loop, empty, from the free list.
func leaseLoop() *batchLoop { return loops.Get().(*batchLoop) }

// release clears every pointer the batch left in the loop — a caller's
// output, tally, flight, context and spans, the asks' buffers, the
// exchanges' errors and their name lists — up to each slice's capacity,
// and gives the loop back to the free list, capacity and all. The idle
// hook stays: nothing fired it, and it holds no connection; so do the
// bound sourceNext and finishNext.
func (l *batchLoop) release() {
	reads := l.reads[:cap(l.reads)]
	for i := range reads {
		reads[i].reset()
	}
	lists := l.lists[:cap(l.lists)]
	for i := range lists {
		lists[i].reset()
	}
	clear(l.tasks[:cap(l.tasks)])
	clear(l.errs[:cap(l.errs)])
	clear(l.exs[:cap(l.exs)])
	l.reads, l.tasks, l.errs, l.active, l.exs, l.lists, l.starts, l.finished = l.reads[:0], l.tasks[:0], l.errs[:0], l.active[:0], l.exs[:0], l.lists[:0], l.starts[:0], l.finished[:0]
	l.s, l.flight, l.ctx, l.hedge = nil, nil, nil, time.Time{}
	loops.Put(l)
}

// runBatch is the one stripe loop, behind every read and repair: it drives
// each stripe of l's batch (its tasks) through plan, round, strike and
// re-plan until the stripe finishes or fails, and calls its done exactly
// once. Every stripe keeps its own stripeOp, so it plans, strikes,
// unhedges and runs out of survivors for itself alone. What the batch
// shares is the round: every stripe still short plans, and the asks are
// grouped by (block, arguments) into one exchange each, all under one
// hedge deadline (exchange). A name's NotFound or Corrupt verdict strikes
// its block for that one stripe; a failed or timed-out exchange strikes it
// for every stripe it carried. A stripe whose asks all landed finishes on
// a goroutine of its own, started from the loop's bound finishNext, while
// the others' rounds go on (a batch of one, on this one). A round cut
// short by the caller's context is a victim, not a verdict about the
// blocks, so the stripe reports the context's error.
// A flight's abort ends a round the same way. runBatch returns once every
// stripe is done, its outcome in its stripeOp's err.
func (s *Store) runBatch(ctx context.Context, op byte, l *batchLoop) {
	l.active = l.active[:0]
	for i := range l.tasks {
		l.active = append(l.active, i)
	}
	l.avail = slices.Grow(l.avail[:0], len(s.addrs))[:len(s.addrs)]
	// Every task has a slot before a finisher starts, so the slice itself
	// is not written while finishers read it.
	l.finished = slices.Grow(l.finished[:0], len(l.tasks))[:len(l.tasks)]
	l.finNext.Store(0)
	finished := 0
	for len(l.active) > 0 {
		planned := l.active[:0]
		for _, i := range l.active {
			t := l.tasks[i]
			if err := t.stripe().plan(l.avail, t.try); err != nil {
				endStripe(t, err)
				continue
			}
			planned = append(planned, i)
		}
		if l.active = planned; len(l.active) == 0 {
			break
		}
		s.exchange(ctx, op, l, l.group())
		next := l.active[:0]
		for _, i := range l.active {
			t := l.tasks[i]
			short := t.stripe().settle(l.exs)
			t.landed()
			switch {
			case short && l.stopped(ctx) != nil:
				endStripe(t, classify(l.stopped(ctx)))
			case short:
				next = append(next, i)
			case len(l.tasks) == 1: // a batch of one starts no goroutine
				endStripe(t, t.finish())
			default:
				l.finished[finished] = i
				finished++
				l.finishing.Add(1)
				go l.finishNext()
			}
		}
		l.active = next
	}
	l.finishing.Wait()
}

// takeFinish finishes the next stripe whose asks all landed that no
// goroutine has taken.
func (l *batchLoop) takeFinish() {
	defer l.finishing.Done()
	t := l.tasks[l.finished[l.finNext.Add(1)-1]]
	endStripe(t, t.finish())
}

// stopped is why the batch's rounds must stop, if they must: its context's
// error, or context.Canceled once the flight it fetches for is aborted.
func (l *batchLoop) stopped(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if l.flight != nil && l.flight.Aborted() {
		return context.Canceled
	}
	return nil
}

// endStripe ends a stripe with its outcome.
func endStripe(t stripeTask, err error) {
	t.stripe().err = err
	t.done()
}

// group gathers the round's asks into l's exchanges, one per (block,
// arguments), in the order the stripes asked, and records in each ask the
// exchange it rides. It returns the round's plan kinds — one, or several
// joined by "+" when the stripes differ.
func (l *batchLoop) group() (mode string) {
	l.exs = l.exs[:0]
	for _, i := range l.active {
		t := l.tasks[i]
		so := t.stripe()
		var m string
		m, so.round = t.asks()
		if mode == "" {
			mode = m
		} else if m != mode && !slices.Contains(strings.Split(mode, "+"), m) {
			mode += "+" + m
		}
		for k := range so.round {
			a := &so.round[k]
			x := 0
			for x < len(l.exs) && (l.exs[x].block != a.block || l.exs[x].args != a.args) {
				x++
			}
			if x == len(l.exs) {
				l.exs = append(l.exs, batchExchange{block: a.block, args: a.args})
			}
			l.exs[x].n++
			l.exs[x].unhedged = l.exs[x].unhedged || so.unhedged
			a.ex, a.err = x, nil
		}
	}
	return mode
}

// exchange runs the round's exchanges (l's) under one hedge deadline —
// none for an exchange that carries an unhedged stripe — and waits them
// all out: a failure cancels nobody, so everything that can land does, and
// nothing writes into a destination after the round returns. Each source
// but the last runs on a goroutine of its own (sourceNext), and the last
// on this one. The hedge is a deadline value, and one hook interrupts
// every exchange of the round (roundHook): on ctx, when ctx can end, and
// armed in the flight's abort, when the batch fetches for a cache flight,
// whose context never ends. An exchange costs no context or hook of its
// own, and a hook nothing fired serves the loop's next round. The round's
// fetch span parents the servers' spans of every exchange.
func (s *Store) exchange(ctx context.Context, op byte, l *batchLoop, mode string) {
	ctx, fsp := obs.ChildSpan(ctx, "fetch")
	defer fsp.End()
	l.s, l.op, l.ctx, l.hedge = s, op, ctx, time.Now().Add(s.hedge)
	if ctx.Done() != nil || l.flight != nil {
		if l.hook, l.idle = l.idle, nil; l.hook == nil {
			l.hook = newRoundHook()
		}
		var stop func() bool
		if ctx.Done() != nil {
			stop = context.AfterFunc(ctx, l.hook.Interrupt)
		}
		if l.flight != nil {
			l.flight.Arm(l.hook)
		}
		defer func() {
			// A hook that fired, or may have, serves no other round.
			fired := stop != nil && !stop()
			if l.flight != nil && l.flight.Disarm() {
				fired = true
			}
			if !fired {
				l.idle = l.hook
			}
			l.hook = nil
		}()
	}
	unhedged, several := false, false
	l.starts = l.starts[:0]
	for x := range l.exs {
		unhedged = unhedged || l.exs[x].unhedged
		several = several || l.exs[x].n > 1
		first := true
		for y := range x {
			first = first && l.exs[y].block != l.exs[x].block
		}
		if first {
			l.starts = append(l.starts, x)
		}
	}
	// The name lists are in place before a source starts, so the sources
	// write only their own exchanges' lists; a round whose exchanges each
	// carry one name, such as a cache miss's, rides its clients' batches
	// and needs none.
	if several {
		l.lists = slices.Grow(l.lists[:0], len(l.exs))[:len(l.exs)]
	}
	if fsp != nil {
		fsp.SetAttr("mode", mode).SetAttr("sources", len(l.exs))
	}
	if unhedged {
		fsp.SetAttr("unhedged", true)
	}
	if n := len(l.starts); n > 0 {
		l.next.Store(0)
		l.wg.Add(n)
		for range n - 1 {
			go l.sourceNext()
		}
		l.source(l.starts[n-1])
	}
	l.wg.Wait()
}

// takeSource runs the next source of the round no goroutine has taken.
func (l *batchLoop) takeSource() {
	l.source(l.starts[l.next.Add(1)-1])
}

// source carries, back to back over one pooled client, every exchange of
// the round with exchange x's source, x being its first: a patch plan can
// ask one source for a prefix and a parity range in the same round, and a
// round holds one connection per source.
func (l *batchLoop) source(x int) {
	defer l.wg.Done()
	block := l.exs[x].block
	var c *Client
	var err error
	for y := x; y < len(l.exs); y++ {
		e := &l.exs[y]
		if e.block != block {
			continue
		}
		hedge := l.hedge
		if e.unhedged {
			hedge = time.Time{}
		}
		if c == nil && err == nil {
			c, err = l.s.pool.checkout(l.ctx, l.s.addrs[block], hedge, l.hook)
		}
		if e.err = err; err == nil {
			e.err = l.runNames(c, y, hedge)
		}
	}
	l.s.pool.Put(c)
}

// runNames carries exchange x, of one name or several, over c as one
// request; the verdicts, and a chunk's stripe records, go to its asks. A
// source may run on a fresh goroutine, so the batch is gathered and dealt
// out in functions of their own, off the frames stacked up to the socket
// read: a deeper chain made every exchange copy its stack.
func (l *batchLoop) runNames(c *Client, x int, hedge time.Time) error {
	b := l.batch(c, x)
	err := c.do(l.ctx, request{op: l.op, args: l.exs[x].args, batch: b, hook: l.hook, hedge: hedge})
	if err == nil {
		l.deal(x, b)
	}
	c.clearOne()
	return err
}

// batch gathers exchange x's names, destinations and, for a chunk, record
// storage, in the order the stripes asked: for one name into c's own
// batch, and for several into the loop's list for x, which keeps its
// capacity from round to round and batch to batch; each name is written
// straight into the batch's wire list, so neither allocates once warm. A
// range ask's record storage is nil, and a range answer carries no record,
// so a range list's records stay nil.
func (l *batchLoop) batch(c *Client, x int) *nameBatch {
	var b *nameBatch
	if n := l.exs[x].n; n == 1 {
		b = c.oneBatch(l.op == opChunk)
	} else {
		b = &l.lists[x]
		b.names.reset()
		b.bufs, b.recs = slices.Grow(b.bufs[:0], n), slices.Grow(b.recs[:0], n)
		b.verdicts = slices.Grow(b.verdicts[:0], n)[:n]
	}
	l.each(x, func(so *stripeOp, a *ask) {
		b.names.addBlock(so.file, so.st, a.block)
		b.bufs = append(b.bufs, a.buf)
		if b.recs != nil {
			b.recs = append(b.recs, a.rec)
		}
	})
	return b
}

// reset clears a loop's name list up to its capacity, keeping the
// capacity.
func (b *nameBatch) reset() {
	b.names.reset()
	clear(b.bufs[:cap(b.bufs)])
	clear(b.verdicts[:cap(b.verdicts)])
	clear(b.recs[:cap(b.recs)])
	b.bufs, b.verdicts, b.recs = b.bufs[:0], b.verdicts[:0], b.recs[:0]
}

// deal hands each ask of exchange x its verdict and, for a chunk, its
// stripe record from the batch that carried it.
func (l *batchLoop) deal(x int, b *nameBatch) {
	v, recs := b.verdicts, b.recs
	l.each(x, func(_ *stripeOp, a *ask) {
		a.err, v = v[0], v[1:]
		if recs != nil {
			a.rec, recs = recs[0], recs[1:]
		}
	})
}

// each calls fn for every ask exchange x carries, with its stripe, in the
// order the stripes asked.
func (l *batchLoop) each(x int, fn func(so *stripeOp, a *ask)) {
	for _, i := range l.active {
		so := l.tasks[i].stripe()
		for j := range so.round {
			if so.round[j].ex == x {
				fn(so, &so.round[j])
			}
		}
	}
}

// piece is one range of a stripe read that landed in pooled scratch.
type piece struct {
	carousel.ReadRange
	buf []byte
}

// stripeRead is one stripe of a read batch: its stripeOp, its plan, and
// what has landed, which outlives a re-plan. prefixed stays nil until a
// fetch fails, so a healthy stripe allocates none of it.
type stripeRead struct {
	stripeOp
	dst      []byte
	tally    *stripecache.Tally // the batch's, written on the loop's goroutine alone
	span     *obs.Span          // the stripe's; ended by done
	plan     *carousel.ReadPlan // shared, read-only (PlanRead memoizes it)
	direct   int                // the round's first direct asks are data prefixes into dst
	prefixed []bool             // by block: its data prefix sits in dst
	scratch  []piece            // ranges landed in pooled buffers
	fetched  [][]byte           // the plan's ranges' buffers, as finish hands them to the solve
}

// fetchStripe is the cache's fetch for a miss: it reads the flight's
// stripe into dst (k*blockSize bytes), a read batch of one, tallying into
// the flight and stopped by its abort. ctx carries the starter's values,
// such as the trace link, so the fetch spans nest under the cache span of
// whichever caller started the flight.
func (s *Store) fetchStripe(ctx context.Context, dst []byte) error {
	f := stripecache.FlightOf(ctx)
	k := f.Key()
	_, err := s.readBatch(ctx, k.File, k.Stripe, k.Stripe+1, dst, f.Tally(), f)
	return err
}

// readBatch reads stripes [lo, hi) of the file into dst, one stripe's
// k*blockSize bytes after another, as one batch of the stripe loop, and is
// the only stripe reader there is: each stripe plans, fetches what the plan
// names and has not landed yet, strikes what failed, re-plans and solves.
// Availability is the pool's peer memory and the stripe's own strikes, so
// while no peer is presumed down the first plan is the store's healthy one
// — p data prefixes, each scattered straight into its slot of dst (the
// slots are disjoint, the socket fills the output buffer, no pooled
// intermediary, no copy) — at the cost of one atomic load, and a healthy
// batch is one round of p exchanges, one per source, each carrying every
// stripe's prefix. Replacement and patch units land in pooled scratch that
// Solve reads. A stripe left with nothing to plan on but stragglers
// forgives them and waits for them unhedged. The batch counts its work in
// t, and a batch that fetches for a cache flight f stops when f is
// aborted. It returns the first stripe that failed, with its root cause.
func (s *Store) readBatch(ctx context.Context, name string, lo, hi int, dst []byte, t *stripecache.Tally, f *stripecache.Flight) (int, error) {
	var bsp *obs.Span
	if hi-lo > 1 { // a batch of one is traced as its stripe
		ctx, bsp = obs.ChildSpan(ctx, "batch")
		bsp.SetAttr("stripe", lo).SetAttr("stripes", hi-lo)
		defer bsp.End()
	}
	stripeData := s.code.K() * s.blockSize
	l := leaseLoop()
	defer l.release()
	l.flight = f
	l.reads = slices.Grow(l.reads, hi-lo)[:hi-lo]
	for i := range l.reads {
		rd := &l.reads[i] // reset: all but the capacity of its asks and scratch
		rd.stripeOp = stripeOp{s: s, file: name, st: lo + i, round: rd.round}
		rd.dst, rd.tally = dst[i*stripeData:(i+1)*stripeData], t
		l.tasks = append(l.tasks, rd)
		if rd.ctx, rd.span = obs.ChildSpan(ctx, "stripe"); rd.span == nil {
			continue // an untraced read records no stage
		}
		rd.span.SetAttr("stripe", lo+i)
		if bsp == nil {
			ctx = rd.ctx
		}
		// Locate: resolve which servers hold this stripe's data prefixes.
		// The placement is deterministic (block i lives on server i), so
		// this stage is pure bookkeeping — but it is a real stage of the
		// paper's read pipeline and carrying it as a span keeps the
		// decomposition uniform.
		_, lsp := obs.ChildSpan(rd.ctx, "locate")
		lsp.SetAttr("sources", s.code.P()).SetAttr("bytes_per_source", s.healthy.BytesPerSource).End()
	}
	s.runBatch(ctx, opRange, l)
	for i := range l.reads {
		l.errs = append(l.errs, l.reads[i].err)
	}
	i, err := pipelineErr(ctx, l.errs, len(l.errs))
	if err != nil {
		bsp.SetAttr("error", err.Error())
	}
	return lo + i, err
}

// try plans the stripe: the healthy plan on every block, else PlanRead.
func (rd *stripeRead) try(avail []bool) (err error) {
	rd.plan = rd.s.healthy
	if avail != nil {
		rd.plan, err = rd.s.code.PlanRead(avail, rd.s.blockSize)
	}
	return err
}

// asks lists every piece of the plan that has not landed yet: a data
// prefix straight into its slot of dst, a range into pooled scratch.
func (rd *stripeRead) asks() (string, []ask) {
	per := rd.plan.BytesPerSource
	round := slices.Grow(rd.round[:0], len(rd.plan.Direct)+len(rd.plan.Ranges))
	for _, b := range rd.plan.Direct {
		if rd.prefixed == nil || !rd.prefixed[b] {
			round = append(round, ask{block: b, args: [2]uint32{0, uint32(per)}, buf: rd.dst[b*per : (b+1)*per]})
		}
	}
	rd.direct = len(round)
	for _, r := range rd.plan.Ranges {
		if rd.landedIn(r) == nil {
			round = append(round, ask{block: r.Block, args: [2]uint32{uint32(r.Off), uint32(r.Len)}, buf: bufpool.Get(r.Len)})
		}
	}
	return rd.plan.Mode, round
}

// landed folds the round into the tally — every fetch's bytes or
// corruption verdict, none dropped, and the plan that serves a stripe whose
// every ask landed, which finishes next — and keeps what landed: a prefix
// is marked in place once a re-plan is coming, a range joins the scratch,
// and a failed range's buffer is recycled. Each process-wide counter moves
// with its tally.
func (rd *stripeRead) landed() {
	if rd.struck != nil && rd.prefixed == nil {
		rd.prefixed = make([]bool, len(rd.s.addrs)) // a re-plan is coming
	}
	short := false
	for k, a := range rd.round {
		switch {
		case a.err != nil:
			short = true
			if errors.Is(a.err, ErrCorrupt) {
				rd.tally.Corrupt++
				mCorruptSources.Inc()
			}
			if k >= rd.direct {
				Recycle(a.buf)
			}
		case k >= rd.direct:
			rd.scratch = append(rd.scratch, piece{carousel.ReadRange{Block: a.block, Off: int(a.args[0]), Len: int(a.args[1])}, a.buf})
		case rd.prefixed != nil:
			rd.prefixed[a.block] = true
		}
		if a.err == nil {
			rd.tally.Bytes += int64(len(a.buf))
			mBytesFetched.Add(int64(len(a.buf)))
		}
	}
	switch {
	case short:
	case len(rd.plan.Ranges) == 0:
		rd.tally.Parallel++
		mStripesParallel.Inc()
	default:
		rd.tally.Fallback++
		mStripesFallback.Inc()
	}
}

// landedIn returns the pooled buffer range r was fetched into, if it was.
func (rd *stripeRead) landedIn(r carousel.ReadRange) []byte {
	for _, pc := range rd.scratch {
		if pc.ReadRange == r {
			return pc.buf
		}
	}
	return nil
}

// finish completes the stripe from what has landed (landed counted how it
// is served).
func (rd *stripeRead) finish() error {
	plan := rd.plan
	if len(plan.Ranges) == 0 {
		return nil
	}
	rd.fetched = rd.fetched[:0]
	for _, r := range plan.Ranges {
		rd.fetched = append(rd.fetched, rd.landedIn(r))
	}
	_, dsp := obs.ChildSpan(rd.ctx, "decode")
	if dsp != nil { // an untraced stripe boxes no attribute
		dsp.SetAttr("ranges", len(rd.fetched)).SetAttr("bytes", len(rd.dst))
	}
	err := plan.Solve(rd.fetched, rd.dst)
	dsp.End()
	return err
}

// done recycles the stripe's scratch and ends its span.
func (rd *stripeRead) done() {
	for _, pc := range rd.scratch {
		Recycle(pc.buf)
	}
	rd.scratch = rd.scratch[:0] // its loop's release clears it
	rd.span.End()
}

// reset zeroes the stripe read for the next batch its loop runs, keeping
// only the capacity of its asks, its scratch and its solve list, cleared.
func (rd *stripeRead) reset() {
	round, scratch, fetched := rd.round[:cap(rd.round)], rd.scratch[:cap(rd.scratch)], rd.fetched[:cap(rd.fetched)]
	clear(round)
	clear(scratch)
	clear(fetched)
	*rd = stripeRead{stripeOp: stripeOp{round: round[:0]}, scratch: scratch[:0], fetched: fetched[:0]}
}

// Repair regenerates block failed of a stripe on its home server, the
// newcomer, and reports the bytes of the helper chunks that crossed the
// network. It is a recovery batch of one stripe (repairBatch): one rebuild
// exchange with the newcomer, which fetches d helper chunks computed
// server-side, rebuilds the block and stores it, running the read path's
// stripe loop — a helper that fails or straggles past the hedge is struck
// and a spare from the survivor ring takes its place, so a dead or slow
// server cannot stall the repair, and a cluster slow everywhere is
// repaired slowly. Helpers are chosen by rotating the survivor ring by the
// stripe index, so a multi-stripe repair pass spreads chunk load over all
// n-1 survivors instead of hammering survivors 0..d-1 for every stripe. An
// index out of range fails before any I/O.
func (s *Store) Repair(ctx context.Context, name string, st, failed int) (trafficBytes int, err error) {
	if n := s.code.N(); failed < 0 || failed >= n || st < 0 {
		return 0, fmt.Errorf("blockserver: stripe %d block %d out of range (blocks [0,%d))", st, failed, n)
	}
	var moved [1]int
	var errs [1]error
	s.repairBatch(ctx, []repairJob{{file: name, ref: BlockRef{Stripe: st, Block: failed}}}, []int{0}, moved[:], errs[:], nil)
	return moved[0], errs[0]
}

// rotatedSurvivors lists the n-1 survivor block indexes starting at
// rotation rot: rot 0 is ascending order; successive rotations shift which
// d survivors are contacted first, so consecutive stripes walk the ring
// instead of reusing one prefix.
func rotatedSurvivors(n, failed, rot int) []int {
	ring := make([]int, n-1)
	for j := range ring {
		i := (rot%(n-1) + n - 1 + j) % (n - 1) // the (rot+j)-th survivor, rot < 0 too
		if i >= failed {
			i++ // skip the failed index
		}
		ring[j] = i
	}
	return ring
}

// BlockRef names one block of a striped file.
type BlockRef struct {
	Stripe int
	Block  int
}

// ScrubReport summarizes a scrub pass.
type ScrubReport struct {
	// BlocksChecked counts verify probes issued.
	BlocksChecked int
	// Corrupt lists blocks whose server-side checksum no longer matches.
	Corrupt []BlockRef
	// Missing lists blocks their home server does not hold.
	Missing []BlockRef
	// Unreachable lists blocks whose home server could not be probed
	// (dial failure or timeout); they cannot be verified or repaired in
	// place until the server returns or is replaced.
	Unreachable []BlockRef
	// Torn lists the stripes whose intact blocks carry different stripe
	// records, as a WriteFile that died between two servers' puts leaves
	// them. Their broken blocks are listed but not repaired: rebuilt from
	// helpers of two versions, such a block would match neither.
	Torn []int
	// Repaired lists blocks regenerated during the pass.
	Repaired []BlockRef
	// TrafficBytes counts repair bytes moved across the network.
	TrafficBytes int
}

// Scrub audits every block of the file with server-side checksum probes
// (no block content crosses the network) and, when repair is true,
// regenerates each corrupt or missing block of a stripe that is not torn
// from d helper chunks, through the recovery engine's batches. Its stripes
// run in batches (scrubBatch) through the pipeline, each one verify
// exchange per server. A verdict is data: an unreachable server is a line
// in the report, and only the caller's context ending fails the scrub.
func (s *Store) Scrub(ctx context.Context, name string, size int, repair bool) (*ScrubReport, error) {
	stripes, err := s.stripesOf(name, size)
	if err != nil {
		return nil, err
	}
	n := s.code.N()
	ctx, sp := obs.ChildSpan(ctx, "store.scrub")
	sp.SetAttr("file", name).SetAttr("stripes", stripes)
	defer sp.End()
	rep := &ScrubReport{}
	// The report reads the per-block slots in (stripe, block) order.
	per := s.scrubBatchSize(name, stripes)
	batches := (stripes + per - 1) / per
	verdicts, torn := make([]error, stripes*n), make([]bool, stripes)
	errs, launched := pipeline(ctx, batches, batchWidth(stripes, batches), func(ctx context.Context, b int) error {
		s.scrubBatch(ctx, name, b*per, min((b+1)*per, stripes), verdicts, torn)
		return nil
	})
	if b, err := pipelineErr(ctx, errs, launched); err != nil {
		return rep, fmt.Errorf("blockserver: scrub verify stripe %d: %w", b*per, err)
	}
	var broken []repairJob
	for st := range stripes {
		if torn[st] {
			rep.Torn = append(rep.Torn, st)
		}
		for i, v := range verdicts[st*n : (st+1)*n] {
			rep.BlocksChecked++
			ref := BlockRef{Stripe: st, Block: i}
			switch {
			case v == nil:
				continue
			case errors.Is(v, ErrCorrupt):
				rep.Corrupt = append(rep.Corrupt, ref)
			case errors.Is(v, ErrNotFound):
				rep.Missing = append(rep.Missing, ref)
			case ctx.Err() != nil:
				return rep, fmt.Errorf("blockserver: scrub verify stripe %d block %d: %w", st, i, v)
			default: // not repaired: its home server must be up to store it
				rep.Unreachable = append(rep.Unreachable, ref)
				continue
			}
			if !torn[st] {
				broken = append(broken, repairJob{file: name, ref: ref})
			}
		}
	}
	if !repair || len(broken) == 0 {
		return rep, nil
	}
	traffic, _, repaired, err := s.repairMany(ctx, broken, nil)
	rep.TrafficBytes = int(traffic)
	for _, j := range repaired {
		rep.Repaired = append(rep.Repaired, j.ref)
	}
	if err != nil {
		return rep, fmt.Errorf("blockserver: scrub repair %w", err)
	}
	return rep, nil
}

// scrubBatchSize is the most stripes a scrub batch holds: as many as keep
// each server's checked blocks within batchBytes, its request's names
// within one meta and its answer's verdicts and stripe records within
// another, and never fewer than one.
func (s *Store) scrubBatchSize(file string, stripes int) int {
	n := s.code.N()
	name := 2 + len(BlockName(file, stripes-1, n-1)) // the longest of the file's names
	return max(1, min(batchBytes/s.blockSize, (math.MaxUint16-2-traceLen)/name, math.MaxUint16/(2+4*n)))
}

// scrubBatch asks each server, in one verify exchange, for the verdicts
// and stripe records of its blocks of stripes [lo, hi). Block i of stripe
// st's verdict — or the exchange's own error — lands in verdicts[st·n+i],
// and torn[st] is set when two intact blocks' records differ.
func (s *Store) scrubBatch(ctx context.Context, file string, lo, hi int, verdicts []error, torn []bool) {
	n, m := s.code.N(), hi-lo
	// Server i's records (room for n CRCs each) and verdicts are slots i·m
	// to (i+1)·m.
	names, recs, vs, slab := serverLists(file, n, lo, hi), make([][]uint32, n*m), make([]error, n*m), make([]uint32, n*m*n)
	for k := range recs {
		recs[k] = slab[k*n : k*n : (k+1)*n]
	}
	errs := fanOut(n, func(i int) error {
		return s.pool.WithClient(ctx, s.addrs[i], func(c *Client) error {
			return c.verifies(ctx, names[i], recs[i*m:(i+1)*m], vs[i*m:(i+1)*m])
		})
	})
	for j := range m {
		st := lo + j
		var first []uint32
		for i := range n {
			v, rec := vs[i*m+j], recs[i*m+j]
			if errs[i] != nil {
				v = errs[i]
			}
			verdicts[st*n+i] = v
			switch {
			case v != nil || len(rec) == 0:
			case first == nil:
				first = rec
			case !slices.Equal(rec, first):
				torn[st] = true
			}
		}
	}
}
