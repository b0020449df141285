package blockserver

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"carousel/internal/bufpool"
	"carousel/internal/obs"
)

// mThrottleWaitNS is the time recovery passes have slept in the bandwidth
// throttle. Everything else a pass does is in its RecoveryReport and its
// store.recover span tree; each block it rebuilds is one repair, counted
// where repairs are.
var mThrottleWaitNS = obs.Default().Counter("store_recover_throttle_wait_ns_total")

// recoveryConfig collects the engine knobs.
type recoveryConfig struct {
	bandwidth int64 // bytes/sec; 0 = unthrottled
}

// RecoveryOption configures a RecoverServer pass.
type RecoveryOption func(*recoveryConfig)

// WithRecoveryBandwidth caps recovery traffic (helper chunk fetches plus
// newcomer writebacks) at roughly bytesPerSec via a token bucket, so a
// background recovery pass can coexist with foreground reads instead of
// saturating the wire. Zero or negative removes the cap.
func WithRecoveryBandwidth(bytesPerSec int64) RecoveryOption {
	return func(c *recoveryConfig) {
		if bytesPerSec > 0 {
			c.bandwidth = bytesPerSec
		}
	}
}

// FileSpec names one striped file RecoverServer walks: the byte size
// determines the stripe count, exactly as ReadFile's size argument does.
type FileSpec struct {
	Name string
	Size int
}

// RecoveryReport summarizes a RecoverServer pass.
type RecoveryReport struct {
	// BlocksRepaired counts blocks regenerated onto the recovering server.
	BlocksRepaired int
	// BytesRecovered is the regenerated block bytes written back — the
	// numerator of recovery MB/s.
	BytesRecovered int64
	// TrafficBytes counts helper chunk bytes fetched across the network
	// (the Fig. 7 quantity, summed over every repaired block).
	TrafficBytes int64
	// HelperChunks maps helper address to how many winning chunks it
	// served — the balance evidence: with rotation every one of the n-1
	// survivors appears, and no helper carries more than ~1/d of a ring
	// lap beyond the mean.
	HelperChunks map[string]int64
}

// RecoverServer regenerates every block the failed server held across all
// stripes of the given files — node-scale recovery on the real TCP path.
// Block i of every stripe lives on server i, so each stripe of each file
// contributes exactly one lost block. Repairs run in batches of one ring
// lap of stripes (repairBatch), repairWidth at once: each helper
// answers one exchange per batch round for all the batch's stripes that
// planned it, and one batch's exchanges overlap the other's RepairBlock
// decodes and newcomer writebacks, all over the store's shared connection
// pool and buffer pool. Helper selection rotates with the stripe index so
// repair load spreads over all n-1 survivors, and WithRecoveryBandwidth
// paces the pass.
//
// The failed server's address must be accepting writes again (restarted
// empty, or a replacement at the same address): regenerated blocks are
// written back to their home. The first repair failure cancels the
// launch of later batches; the report covers the work done either way.
func (s *Store) RecoverServer(ctx context.Context, failed int, files []FileSpec, opts ...RecoveryOption) (*RecoveryReport, error) {
	n := s.code.N()
	d := s.code.D()
	if failed < 0 || failed >= n {
		return nil, fmt.Errorf("blockserver: failed server %d out of range [0,%d)", failed, n)
	}
	var cfg recoveryConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	ctx, sp := obs.StartSpan(ctx, "store.recover")
	sp.SetAttr("failed", failed).SetAttr("server", s.addrs[failed]).SetAttr("files", len(files))
	defer sp.End()

	// Enumerate: every stripe of every file lost exactly one block to the
	// failed server.
	var jobs []repairJob
	for _, f := range files {
		stripes, err := s.stripesOf(f.Name, f.Size)
		if err != nil {
			return nil, err
		}
		for st := 0; st < stripes; st++ {
			jobs = append(jobs, repairJob{file: f.Name, ref: BlockRef{Stripe: st, Block: failed}})
		}
	}
	report := &RecoveryReport{HelperChunks: make(map[string]int64)}
	if len(jobs) == 0 {
		return report, nil
	}
	sp.SetAttr("blocks", len(jobs))

	// Warm the repair plans for every helper rotation this pass will use,
	// so plan compilation happens once up front instead of stalling the
	// pipeline on its first lap around the survivor ring.
	_, wsp := obs.StartSpan(ctx, "warm")
	for r := 0; r < min(len(jobs), n-1); r++ {
		if err := s.code.WarmRepair(failed, rotatedSurvivors(n, failed, r)[:d]); err != nil {
			wsp.End()
			return report, fmt.Errorf("blockserver: recover plan warm: %w", err)
		}
	}
	wsp.End()

	var tb *tokenBucket
	if cfg.bandwidth > 0 {
		// The bucket starts empty, so the pass pays for every byte it moves
		// and back-to-back passes (a master task's one-file items) cannot
		// exceed the budget together. Idle time banks at most one repair or
		// a quarter second of budget, whichever is more.
		tb = newTokenBucket(cfg.bandwidth, d*s.code.HelperChunkSize(s.blockSize)+s.blockSize)
	}
	var mu sync.Mutex
	onHelper := func(idx int) {
		mu.Lock()
		report.HelperChunks[s.addrs[idx]]++
		mu.Unlock()
	}
	traffic, repaired, err := s.repairMany(ctx, jobs, 0, repairOpts{throttle: tb, onHelper: onHelper})
	report.TrafficBytes = traffic
	report.BlocksRepaired = len(repaired)
	report.BytesRecovered = int64(len(repaired)) * int64(s.blockSize)
	sp.SetAttr("blocks_repaired", report.BlocksRepaired).SetAttr("traffic_bytes", report.TrafficBytes)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return report, fmt.Errorf("blockserver: recover %w", err)
	}
	return report, nil
}

// repairJob names one block repair of a recovery or scrub pass.
type repairJob struct {
	file string
	ref  BlockRef
}

// lapsPerBatch sizes a repair batch in laps of the rotated survivor ring:
// a batch is at most lapsPerBatch·(n−1) stripes of one file with one
// failed index. Why one lap: over n−1 consecutive stripes every survivor
// is among the first d candidates of exactly d of them, so each helper
// answers one exchange of d chunks per batch round — a rebuilt block costs
// one chunk exchange instead of d — and a longer batch would only
// delay its first decode and hold more chunks at once.
const lapsPerBatch = 1

// batchBytes bounds a repair batch by bytes as well as by the lap: each
// stripe of a batch takes d pooled chunk slots up front, and a helper may
// carry a chunk of every stripe in one exchange, so a batch is at most
// batchBytes/(d·chunk) stripes, and never fewer than one. Why 8 MiB: a
// full lap of the benchmark's 43,680-byte blocks at (12,6,10,10) is
// 11·87,360 B ≈ 0.9 MiB, so the lap is what binds up to blocks of about
// 380 KB there; past that the batch shrinks, so an exchange stays a few MiB
// (far under maxPayload, and quick to verify inside the hedge), and a
// block whose d chunks alone pass 8 MiB repairs one stripe per batch with
// d exchanges, as Repair does.
const batchBytes = 8 << 20

// batchesInFlight is the fewest repair batches RecoverServer and Scrub run
// at once. Why 2: the pass is CPU-bound, so more single-stripe repairs in
// flight bought nothing; what a second batch buys is overlap — one batch's
// exchanges are on the wire while the other decodes and writes back — and
// a third would only hold more chunks in memory. Small batches (a scrub's
// scattered blocks, each with its own failed index, or large blocks cut
// down by batchBytes) get more of them: repairWidth keeps about
// stripesInFlight stripes in flight, as a repair one stripe at a time
// did. The batches in flight are also the recovery wave that can meet a
// dead helper before the pool remembers it: batchesInFlight·(n−1) stripes
// when the batches are full laps.
const batchesInFlight = 2

// repairWidth is how many of a pass's batches run at once: batchesInFlight,
// or enough batches of their mean size to keep stripesInFlight stripes in
// flight, whichever is more.
func repairWidth(jobs, batches int) int {
	return max(batchesInFlight, stripesInFlight*batches/jobs)
}

// repairBatches groups jobs into batches, in job order: the jobs of one
// (file, failed index) pair, cut every size. A RecoverServer pass lists
// consecutive stripes of each file, so each of its batches is one lap of
// the survivor ring; a scrub's batches are its broken blocks grouped by
// failed index.
func repairBatches(jobs []repairJob, size int) [][]int {
	type key struct {
		file   string
		failed int
	}
	var batches [][]int
	filling := make(map[key]int) // the batch each pair is still filling
	for j, job := range jobs {
		k := key{job.file, job.ref.Block}
		b, ok := filling[k]
		if !ok || len(batches[b]) == size {
			b = len(batches)
			filling[k] = b
			batches = append(batches, make([]int, 0, min(size, len(jobs)-j)))
		}
		batches[b] = append(batches[b], j)
	}
	return batches
}

// repairMany runs block repairs batch by batch through the bounded
// pipeline: up to conc batches are in flight (0: repairWidth), so one
// batch's helper exchanges overlap another's decode and writeback, and the
// first failure cancels the launch of later batches (in-flight ones
// drain). A batch is one lap, or fewer stripes if a lap's chunks would
// pass batchBytes. It reports the helper bytes moved, the jobs that
// completed (in job order), and the root-cause failure naming its job.
func (s *Store) repairMany(ctx context.Context, jobs []repairJob, conc int, ro repairOpts) (traffic int64, repaired []repairJob, err error) {
	stripeBytes := s.code.D() * s.code.HelperChunkSize(s.blockSize)
	batches := repairBatches(jobs, min(lapsPerBatch*(s.code.N()-1), max(1, batchBytes/stripeBytes)))
	if conc == 0 {
		conc = repairWidth(len(jobs), len(batches))
	}
	moved, errs := make([]int, len(jobs)), make([]error, len(jobs))
	berrs, launched := pipeline(ctx, len(batches), conc, func(ctx context.Context, b int) error {
		return s.repairBatch(ctx, jobs, batches[b], moved, errs, ro)
	})
	ran := make([]bool, len(jobs))
	for _, batch := range batches[:launched] {
		for _, j := range batch {
			ran[j] = true
			traffic += int64(moved[j])
		}
	}
	for j, job := range jobs {
		if ran[j] && errs[j] == nil {
			repaired = append(repaired, job)
		}
	}
	if b, err := pipelineErr(ctx, berrs, launched); err != nil {
		if b == launched { // the caller's context ended before this batch began
			err = jobErr(jobs[batches[b][0]], err)
		}
		return traffic, repaired, err
	}
	return traffic, repaired, nil
}

// jobErr names the job a repair failure belongs to.
func jobErr(j repairJob, err error) error {
	return fmt.Errorf("%s stripe %d block %d: %w", j.file, j.ref.Stripe, j.ref.Block, err)
}

// stripeRepair is one stripe's way through a repair batch: its stripeOp,
// its candidates in ring order, and the chunks that have landed, which
// outlive a re-plan. The chunks land in d slots of one pooled buffer; a
// slot whose fetch failed goes back to free for the next round's spare.
type stripeRepair struct {
	stripeOp
	job        repairJob
	candidates []int
	buf        []byte   // d chunk slots, pooled
	free       [][]byte // slots no landed chunk holds
	helpers    []int
	chunks     [][]byte
	ask        []int // this round's plan
	pos        []int // ask[k]'s place in its helper's exchange
	asked      int   // chunks requested: d, plus one per spare promoted
	traffic    int
	t0         time.Time
}

// try plans the stripe's next round on avail (nil: every block): the next
// d − len(helpers) candidates in ring order that are available and have
// not landed yet.
func (r *stripeRepair) try(avail []bool) error {
	d := r.s.code.D()
	r.ask = r.ask[:0]
	for _, i := range r.candidates {
		if len(r.helpers)+len(r.ask) < d && (avail == nil || avail[i]) && !slices.Contains(r.helpers, i) {
			r.ask = append(r.ask, i)
		}
	}
	if have := len(r.helpers) + len(r.ask); have < d {
		return fmt.Errorf("%d of %d helpers left", have, d)
	}
	return nil
}

// release recycles the chunk slots.
func (r *stripeRepair) release() {
	bufpool.Put(r.buf)
	r.buf, r.free, r.chunks = nil, nil, nil
}

// chunkExchange is one helper's part of a batch round: the stripes that
// planned it, the names of their blocks on it, where their chunks land,
// and its answer — the exchange's own error, or a verdict per name.
type chunkExchange struct {
	stripes  []int // indexes into the batch, in plan order
	unhedged bool  // carries a stripe that waits out its stragglers
	names    []string
	dst      [][]byte
	verdicts []error
	err      error
}

// repairBatch is the one repair engine behind Repair, Scrub and
// RecoverServer. It rebuilds the batch's jobs — stripes of one file with
// one failed index — and runs the read path's stripe loop for each: every
// stripe keeps its own stripeOp, plans the next d − len(helpers) available
// survivors in its rotated ring order, and strikes for itself alone. What
// the batch shares is the round: the throttle is charged once for all of
// it, and each helper gets one exchange carrying every stripe that planned
// it, all under one hedge deadline (none for an exchange that carries an
// unhedged stripe). A name's NotFound or Corrupt verdict strikes its helper
// for that one stripe; a failed or timed-out exchange strikes it for every
// stripe it carried. A healthy batch is one round of n−1 exchanges of d
// chunks each — the paper's optimal traffic in one round trip per block —
// and every struck helper costs its stripe one spare in a later round. A
// stripe with d chunks decodes (RepairBlockInto) and writes back on its
// own goroutine while the others' rounds go on. moved[j] and errs[j]
// receive job j's traffic and outcome; the batch returns its root cause,
// naming its job.
func (s *Store) repairBatch(ctx context.Context, jobs []repairJob, batch []int, moved []int, errs []error, ro repairOpts) error {
	n, d := s.code.N(), s.code.D()
	first := jobs[batch[0]]
	file, failed := first.file, first.ref.Block
	chunkSize := s.code.HelperChunkSize(s.blockSize)
	ctx, sp := obs.StartSpan(ctx, "store.repair")
	sp.SetAttr("file", file).SetAttr("stripe", first.ref.Stripe).SetAttr("stripes", len(batch)).SetAttr("failed", failed)
	defer sp.End()

	stripes := make([]*stripeRepair, len(batch))
	active := make([]int, len(batch))
	for i, j := range batch {
		r := &stripeRepair{
			stripeOp:   stripeOp{s: s},
			job:        jobs[j],
			candidates: rotatedSurvivors(n, failed, jobs[j].ref.Stripe),
			buf:        bufpool.Get(d * chunkSize),
			free:       make([][]byte, d),
			helpers:    make([]int, 0, d),
			chunks:     make([][]byte, 0, d),
			t0:         time.Now(),
		}
		for k := range r.free {
			r.free[k] = r.buf[k*chunkSize : (k+1)*chunkSize : (k+1)*chunkSize]
		}
		stripes[i], active[i] = r, i
	}
	done := func(i int, err error) {
		r := stripes[i]
		r.release()
		mRepairs.Inc()
		mRepairTraffic.Add(int64(r.traffic))
		mSparePromotions.Add(int64(max(r.asked-d, 0)))
		sloRepair.ObserveSince(r.t0, err)
		moved[batch[i]], errs[batch[i]] = r.traffic, err
	}
	var rebuilds sync.WaitGroup
	traffic := 0
	for len(active) > 0 {
		planned := active[:0]
		for _, i := range active {
			r := stripes[i]
			if err := r.plan(ctx, r.try); err != nil {
				done(i, err)
				continue
			}
			planned = append(planned, i)
		}
		active = planned
		if len(active) == 0 {
			break
		}
		ex := make([]chunkExchange, n)
		asks := 0
		for _, i := range active {
			r := stripes[i]
			r.pos = r.pos[:0]
			for _, h := range r.ask {
				r.pos = append(r.pos, len(ex[h].stripes))
				ex[h].stripes = append(ex[h].stripes, i)
				ex[h].unhedged = ex[h].unhedged || r.unhedged
			}
			r.asked += len(r.ask)
			asks += len(r.ask)
		}
		// The throttle runs before the hedge clock starts, so a paced
		// recovery does not misread its own waiting as a straggler.
		if err := ro.throttle.Wait(ctx, asks*chunkSize); err != nil {
			for _, i := range active {
				done(i, err)
			}
			break
		}
		s.exchangeChunks(ctx, file, failed, ex, stripes, chunkSize)
		next := active[:0]
		for _, i := range active {
			r := stripes[i]
			late, short := false, false
			for k, h := range r.ask {
				e := &ex[h]
				err := e.err
				if err == nil {
					err = e.verdicts[r.pos[k]]
				}
				if err != nil {
					r.free = append(r.free, e.dst[r.pos[k]])
					late = r.strike(h, err) || late
					short = true
					continue
				}
				r.helpers, r.chunks = append(r.helpers, h), append(r.chunks, e.dst[r.pos[k]])
				r.traffic += chunkSize
				traffic += chunkSize
				if ro.onHelper != nil {
					ro.onHelper(h)
				}
			}
			if late {
				r.late++
			}
			switch {
			case short && ctx.Err() != nil:
				// A round cut short by the caller's context is a victim,
				// not a verdict about the helpers.
				done(i, classify(ctx.Err()))
			case len(r.helpers) == d:
				rebuilds.Add(1)
				go func() {
					defer rebuilds.Done()
					done(i, s.rebuild(ctx, r, ro))
				}()
			default:
				next = append(next, i)
			}
		}
		active = next
	}
	rebuilds.Wait()
	sp.SetAttr("traffic_bytes", traffic)
	be := make([]error, len(batch))
	for i, j := range batch {
		be[i] = errs[j]
	}
	if i, err := pipelineErr(ctx, be, len(be)); err != nil {
		err = jobErr(jobs[batch[i]], err)
		sp.SetAttr("error", err.Error())
		return err
	}
	return nil
}

// exchangeChunks runs one batch round's exchanges, one per helper that any
// stripe planned, each on its own goroutine over a pooled client, and
// waits them all out: a failure cancels nobody. Each chunk lands in a free
// slot of its stripe's buffer.
func (s *Store) exchangeChunks(ctx context.Context, file string, failed int, ex []chunkExchange, stripes []*stripeRepair, chunkSize int) {
	fetchCtx, fsp := obs.StartSpan(ctx, "fetch")
	defer fsp.End()
	hctx, cancel := context.WithTimeout(fetchCtx, s.hedge)
	defer cancel()
	var wg sync.WaitGroup
	exchanges, unhedged := 0, false
	for h := range ex {
		e := &ex[h]
		if len(e.stripes) == 0 {
			continue
		}
		e.names, e.dst, e.verdicts = make([]string, len(e.stripes)), make([][]byte, len(e.stripes)), make([]error, len(e.stripes))
		for k, i := range e.stripes {
			r := stripes[i]
			e.names[k] = BlockName(file, r.job.ref.Stripe, h)
			e.dst[k], r.free = r.free[len(r.free)-1], r.free[:len(r.free)-1]
		}
		xctx := hctx
		if e.unhedged {
			xctx, unhedged = fetchCtx, true
		}
		exchanges++
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := s.pool.Get(xctx, s.addrs[h])
			if err != nil {
				e.err = err
				return
			}
			e.err = c.Chunks(xctx, e.names, h, failed, e.dst, e.verdicts)
			s.pool.Put(c)
		}()
	}
	fsp.SetAttr("mode", "chunks").SetAttr("sources", exchanges)
	if unhedged {
		fsp.SetAttr("unhedged", true)
	}
	wg.Wait()
}

// rebuild decodes one stripe's lost block from its d chunks into pooled
// scratch, recycles the chunks, and writes the block back to its home
// server. The writeback is synchronous, so by the time rebuild returns
// nothing reads the scratch.
func (s *Store) rebuild(ctx context.Context, r *stripeRepair, ro repairOpts) error {
	st, failed := r.job.ref.Stripe, r.job.ref.Block
	_, dsp := obs.StartSpan(ctx, "decode")
	block := bufpool.Get(s.blockSize)
	defer bufpool.Put(block)
	err := s.code.RepairBlockInto(failed, r.helpers, r.chunks, block)
	dsp.SetAttr("stripe", st).SetAttr("block_bytes", len(block))
	dsp.End()
	r.release()
	if err != nil {
		return err
	}
	if err = ro.throttle.Wait(ctx, len(block)); err != nil {
		return err
	}
	_, psp := obs.StartSpan(ctx, "writeback")
	psp.SetAttr("stripe", st)
	err = s.put(ctx, s.addrs[failed], BlockName(r.job.file, st, failed), block)
	psp.End()
	if err != nil {
		return err
	}
	// The regenerated block is byte-identical to what the code originally
	// produced, but the writeback still bumps the cache generation: belt
	// and suspenders against a reader having cached a stripe decoded from
	// the corrupt block this repair just replaced.
	if s.cache != nil {
		s.cache.Invalidate(r.job.file)
	}
	return nil
}

// tokenBucket paces recovery traffic to a bytes/sec budget. Charges are
// taken up front and the balance may go negative — the caller then sleeps
// the deficit off — which keeps the long-run rate at the target without a
// feedback loop, while burst bounds how far a quiet period can bank.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // max banked bytes
	tokens float64
	last   time.Time
}

// newTokenBucket returns an empty bucket paced at bytesPerSec that can
// bank at most burst bytes (raised to bytesPerSec/4 if smaller, so tiny
// bursts don't quantize the pacing).
func newTokenBucket(bytesPerSec int64, burst int) *tokenBucket {
	b := float64(burst)
	if min := float64(bytesPerSec) / 4; b < min {
		b = min
	}
	return &tokenBucket{rate: float64(bytesPerSec), burst: b, last: time.Now()}
}

// Wait charges n bytes against the budget, sleeping off any deficit. A
// nil bucket never waits, so unthrottled paths pay one pointer test.
func (tb *tokenBucket) Wait(ctx context.Context, n int) error {
	if tb == nil || n <= 0 {
		return nil
	}
	tb.mu.Lock()
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.tokens -= float64(n)
	var wait time.Duration
	if tb.tokens < 0 {
		wait = time.Duration(-tb.tokens / tb.rate * float64(time.Second))
	}
	tb.mu.Unlock()
	if wait <= 0 {
		return nil
	}
	mThrottleWaitNS.Add(int64(wait))
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return classify(ctx.Err())
	}
}
