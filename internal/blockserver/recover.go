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
// lap of stripes (repairBatch), batchWidth at once: each helper
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

// batchBytes bounds a batch by bytes: a repair batch by its chunks as
// well as by the lap, a read batch by its data. Each stripe of a repair
// batch takes d pooled chunk slots up front, and a helper may carry a
// chunk of every stripe in one exchange, so a repair batch is at most
// batchBytes/(d·chunk) stripes; a read batch is at most
// batchBytes/(k·blockSize) consecutive stripes, so one source's exchange
// carries at most batchBytes/k; either is never fewer than one stripe. Why
// 8 MiB: a full lap of the benchmark's 43,680-byte blocks at (12,6,10,10)
// is 11·87,360 B ≈ 0.9 MiB, so the lap is what binds a repair up to blocks
// of about 380 KB there, and a read of the benchmark's 8 MiB files (32
// stripes of 262,080 B) is one batch — one exchange per source per file.
// Past that the batch shrinks, so an exchange stays a few MiB (far under
// maxPayload, and quick to verify inside the hedge), and a block whose d
// chunks alone pass 8 MiB repairs one stripe per batch with d exchanges,
// as Repair does.
const batchBytes = 8 << 20

// batchesInFlight is the fewest batches ReadFile, RecoverServer and Scrub
// run at once. Why 2: a repair pass is CPU-bound, so more single-stripe
// repairs in flight bought nothing; what a second batch buys is overlap —
// one batch's exchanges are on the wire while the other decodes (and, for
// a repair, writes back) — and a third would only hold more memory. Small
// batches (a scrub's scattered blocks, each with its own failed index,
// large blocks cut down by batchBytes, or a cached read's one-stripe
// misses) get more of them: batchWidth keeps about stripesInFlight stripes
// in flight, as reads and repairs one stripe at a time did. The batches in
// flight are also the recovery wave that can meet a dead helper before the
// pool remembers it: batchesInFlight·(n−1) stripes when the batches are
// full laps.
const batchesInFlight = 2

// batchWidth is how many of a pass's batches run at once: batchesInFlight,
// or enough batches of their mean size to keep stripesInFlight stripes in
// flight, whichever is more.
func batchWidth(jobs, batches int) int {
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
// pipeline: up to conc batches are in flight (0: batchWidth), so one
// batch's helper exchanges overlap another's decode and writeback, and the
// first failure cancels the launch of later batches (in-flight ones
// drain). A batch is one lap, or fewer stripes if a lap's chunks would
// pass batchBytes. It reports the helper bytes moved, the jobs that
// completed (in job order), and the root-cause failure naming its job.
func (s *Store) repairMany(ctx context.Context, jobs []repairJob, conc int, ro repairOpts) (traffic int64, repaired []repairJob, err error) {
	stripeBytes := s.code.D() * s.code.HelperChunkSize(s.blockSize)
	batches := repairBatches(jobs, min(lapsPerBatch*(s.code.N()-1), max(1, batchBytes/stripeBytes)))
	if conc == 0 {
		conc = batchWidth(len(jobs), len(batches))
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

// stripeRepair is one stripe of a repair batch: its stripeOp, its
// candidates in ring order, and the chunks that have landed, which outlive
// a re-plan. The chunks land in d slots of one pooled buffer; a slot whose
// fetch failed goes back to free for the next round's spare.
type stripeRepair struct {
	stripeOp
	job        repairJob
	ro         repairOpts
	candidates []int
	buf        []byte   // d chunk slots, pooled
	free       [][]byte // slots no landed chunk holds
	pick       []int    // this round's plan: the helpers to ask
	helpers    []int
	chunks     [][]byte
	asked      int // chunks requested: d, plus one per spare promoted
	traffic    int
	t0         time.Time
}

// try plans the stripe's next round on avail (nil: every block): the next
// d − len(helpers) candidates in ring order that are available and have
// not landed yet.
func (r *stripeRepair) try(avail []bool) error {
	d := r.s.code.D()
	r.pick = r.pick[:0]
	for _, i := range r.candidates {
		if len(r.helpers)+len(r.pick) < d && (avail == nil || avail[i]) && !slices.Contains(r.helpers, i) {
			r.pick = append(r.pick, i)
		}
	}
	if have := len(r.helpers) + len(r.pick); have < d {
		return fmt.Errorf("%d of %d helpers left", have, d)
	}
	return nil
}

// asks asks each picked helper for its chunk, into a free slot.
func (r *stripeRepair) asks() (string, []ask) {
	failed := uint32(r.job.ref.Block)
	round := slices.Grow(r.round[:0], len(r.pick))
	for _, h := range r.pick {
		round = append(round, ask{block: h, args: [2]uint32{uint32(h), failed}, buf: r.free[len(r.free)-1]})
		r.free = r.free[:len(r.free)-1]
	}
	r.asked += len(round)
	return "chunks", round
}

// landed keeps each chunk that landed and frees the slot of each that did
// not, for the spare the next round asks.
func (r *stripeRepair) landed() {
	for _, a := range r.round {
		if a.err != nil {
			r.free = append(r.free, a.buf)
			continue
		}
		r.helpers, r.chunks = append(r.helpers, a.block), append(r.chunks, a.buf)
		r.traffic += len(a.buf)
		if r.ro.onHelper != nil {
			r.ro.onHelper(a.block)
		}
	}
}

// done recycles the chunk slots and counts the repair.
func (r *stripeRepair) done() {
	r.release()
	mRepairs.Inc()
	mRepairTraffic.Add(int64(r.traffic))
	mSparePromotions.Add(int64(max(r.asked-r.s.code.D(), 0)))
	sloRepair.ObserveSince(r.t0, r.err)
}

// release recycles the chunk slots.
func (r *stripeRepair) release() {
	bufpool.Put(r.buf)
	r.buf, r.free, r.chunks = nil, nil, nil
}

// repairBatch is the one repair engine behind Repair, Scrub and
// RecoverServer. It rebuilds the batch's jobs — stripes of one file with
// one failed index — as one batch of the stripe loop (runBatch), with
// opChunk for its op: every stripe plans the next d − len(helpers)
// available survivors in its rotated ring order, so a healthy batch is one
// round of n−1 exchanges of d chunks each — the paper's optimal traffic in
// one round trip per block — and every struck helper costs its stripe one
// spare in a later round. The recovery throttle is charged once per round.
// A stripe with d chunks decodes (RepairBlockInto) and writes back on its
// own goroutine while the others' rounds go on. moved[j] and errs[j]
// receive job j's traffic and outcome; the batch returns its root cause,
// naming its job.
func (s *Store) repairBatch(ctx context.Context, jobs []repairJob, batch []int, moved []int, errs []error, ro repairOpts) error {
	n, d := s.code.N(), s.code.D()
	first := jobs[batch[0]]
	failed := first.ref.Block
	chunkSize := s.code.HelperChunkSize(s.blockSize)
	ctx, sp := obs.StartSpan(ctx, "store.repair")
	sp.SetAttr("file", first.file).SetAttr("stripe", first.ref.Stripe).SetAttr("stripes", len(batch)).SetAttr("failed", failed)
	defer sp.End()

	stripes := make([]stripeRepair, len(batch))
	tasks := make([]stripeTask, len(batch))
	for i, j := range batch {
		r := &stripes[i]
		*r = stripeRepair{
			stripeOp:   stripeOp{s: s, ctx: ctx, file: jobs[j].file, st: jobs[j].ref.Stripe},
			job:        jobs[j],
			ro:         ro,
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
		tasks[i] = r
	}
	s.runBatch(ctx, opChunk, tasks, ro.throttle)
	traffic := 0
	be := make([]error, len(batch))
	for i, j := range batch {
		moved[j], errs[j] = stripes[i].traffic, stripes[i].err
		traffic += moved[j]
		be[i] = errs[j]
	}
	sp.SetAttr("traffic_bytes", traffic)
	if i, err := pipelineErr(ctx, be, len(be)); err != nil {
		err = jobErr(jobs[batch[i]], err)
		sp.SetAttr("error", err.Error())
		return err
	}
	return nil
}

// finish decodes the stripe's lost block from its d chunks into pooled
// scratch, recycles the chunks, and writes the block back to its home
// server. The writeback is synchronous, so by the time finish returns
// nothing reads the scratch.
func (r *stripeRepair) finish() error {
	s, ctx, ro := r.s, r.ctx, r.ro
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
