package blockserver

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"carousel/internal/bufpool"
	"carousel/internal/frame"
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
// the rebuilt blocks) at roughly bytesPerSec via a token bucket, so a
// background recovery pass can coexist with foreground reads instead of
// saturating the wire. The pass charges each batch's d chunks and rebuilt
// block per stripe before it sends the batch to its newcomer. Zero or
// negative removes the cap.
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
	// BytesRecovered is the regenerated block bytes stored at the
	// newcomer — the numerator of recovery MB/s.
	BytesRecovered int64
	// TrafficBytes counts the bytes of the winning helper chunks fetched
	// across the network (the Fig. 7 quantity, summed over every repaired
	// block): not those of a chunk a recheck dropped.
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
// lap of stripes (repairBatch), batchWidth at once, and each batch is one
// rebuild exchange with the newcomer, which runs it: each helper answers
// the newcomer one exchange per batch round for all the batch's stripes
// that planned it, and one batch's exchanges overlap the other's
// RepairBlock decodes, all over the newcomer's connection pool. No block
// and no chunk crosses this store's sockets. Helper selection rotates with
// the stripe index so repair load spreads over all n-1 survivors, and
// WithRecoveryBandwidth paces the pass.
//
// The failed server's address must be serving again (restarted empty, or
// a replacement at the same address): it is the newcomer, and rebuilds
// its blocks in place. The first repair failure cancels the launch of
// later batches; the report covers the work done either way.
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
	ctx, sp := obs.ChildSpan(ctx, "store.recover")
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

	var tb *tokenBucket
	if cfg.bandwidth > 0 {
		// The bucket starts empty, so the pass pays for every byte it moves
		// and back-to-back passes (a master task's one-file items) cannot
		// exceed the budget together. Idle time banks at most one repair or
		// a quarter second of budget, whichever is more.
		tb = newTokenBucket(cfg.bandwidth, d*s.code.HelperChunkSize(s.blockSize)+s.blockSize)
	}
	traffic, chunks, repaired, err := s.repairMany(ctx, jobs, tb)
	for idx, c := range chunks {
		if c != 0 {
			report.HelperChunks[s.addrs[idx]] = c
		}
	}
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

// batchBytes bounds a batch by bytes: a repair batch by its chunks as
// well as by the lap, a read batch by its data. Each stripe of a repair
// batch takes d pooled chunk slots up front, and a helper may carry a
// chunk of every stripe in one exchange, so a repair batch is at most
// batchBytes/(d·chunk) stripes; a read batch is at most
// batchBytes/(k·blockSize) consecutive stripes, so one source's exchange
// carries at most batchBytes/k; a scrub batch is at most
// batchBytes/blockSize stripes, so one server checksums at most batchBytes
// for one verify exchange; none is ever fewer than one stripe. Why
// 8 MiB: a full lap of the benchmark's 43,680-byte blocks at (12,6,10,10)
// is 11·87,360 B ≈ 0.9 MiB, so the lap is what binds a repair up to blocks
// of about 380 KB there, and a read of the benchmark's 8 MiB files (32
// stripes of 262,080 B) is one batch — one exchange per source per file.
// Past that the batch shrinks, so an exchange stays a few MiB (far under
// maxPayload, and quick to verify inside the hedge), and a block whose d
// chunks alone pass 8 MiB repairs one stripe per batch with d exchanges,
// as Repair does.
const batchBytes = 8 << 20

// batchesInFlight is the fewest batches ReadFile, WriteFile, RecoverServer
// and Scrub run at once. Why 2: a repair pass is CPU-bound, so more
// single-stripe repairs in flight bought nothing; what a second batch buys
// is overlap — one batch's exchanges are on the wire while the other
// decodes (a write encodes, a scrub's servers checksum) — and a third
// would only hold more memory. Small batches (a scrub's repairs of
// scattered blocks, large blocks cut down by batchBytes, or a cached
// read's one-stripe misses) get more: batchWidth keeps about
// stripesInFlight stripes in flight. The batches in flight are also the
// recovery wave that can meet a dead helper before the newcomer's pool
// remembers it: batchesInFlight·(n−1) stripes when they are full laps.
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
// pipeline: batchWidth batches are in flight, so one batch's helper
// exchanges overlap another's decode, and the first failure cancels the
// launch of later batches (in-flight ones drain). A batch is one lap, or
// fewer stripes if a lap's chunks would pass batchBytes; throttle, when
// set, paces the batches (repairBatch). It reports the helper bytes moved,
// each helper's winning chunks by block index, the jobs that completed (in
// job order), and the root-cause failure naming its job.
func (s *Store) repairMany(ctx context.Context, jobs []repairJob, throttle *tokenBucket) (traffic int64, chunks []int64, repaired []repairJob, err error) {
	// A batch is at most one lap of the rotated survivor ring: n−1 stripes
	// of one file with one failed index. Why one lap: over n−1 consecutive
	// stripes every survivor is among the first d candidates of exactly d
	// of them, so each helper answers one exchange of d chunks per batch
	// round — a rebuilt block costs one chunk exchange instead of d — and a
	// longer batch would only delay its first decode and hold more chunks
	// at once.
	batches := repairBatches(jobs, s.repairBatchSize())
	moved, errs := make([]int, len(jobs)), make([]error, len(jobs))
	tallies := make([][]int64, len(batches))
	berrs, launched := pipeline(ctx, len(batches), batchWidth(len(jobs), len(batches)), func(ctx context.Context, b int) (err error) {
		tallies[b], err = s.repairBatch(ctx, jobs, batches[b], moved, errs, throttle)
		return err
	})
	ran := make([]bool, len(jobs))
	chunks = make([]int64, s.code.N())
	for b, batch := range batches[:launched] {
		for _, j := range batch {
			ran[j] = true
			traffic += int64(moved[j])
		}
		for idx, c := range tallies[b] {
			chunks[idx] += c
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
		return traffic, chunks, repaired, err
	}
	return traffic, chunks, repaired, nil
}

// repairBatchSize is the most stripes a repair batch holds: one lap of the
// survivor ring, n−1, fewer if a lap's chunks would pass batchBytes or if a
// helper's answer for all of them would not fit one answer meta — a
// verdict, a CRC and a stripe record of n CRCs per stripe, which binds only
// wide codes (n ≥ 128) — and never fewer than one.
func (s *Store) repairBatchSize() int {
	n := s.code.N()
	stripeBytes := s.code.D() * s.code.HelperChunkSize(s.blockSize)
	return max(1, min(n-1, batchBytes/stripeBytes, math.MaxUint16/(6+4*n)))
}

// jobErr names the job a repair failure belongs to.
func jobErr(j repairJob, err error) error {
	return fmt.Errorf("%s stripe %d block %d: %w", j.file, j.ref.Stripe, j.ref.Block, err)
}

// stripeRepair is one stripe of a repair batch: its stripeOp, its
// candidates in ring order, the chunks that have landed, which outlive a
// re-plan, and what their stripe records say the lost block is. The chunks
// land in d slots of one pooled buffer; a slot whose fetch failed goes
// back to free for the next round's spare. A round's records land in d
// slots of n CRCs, and the first is kept in one more, for the rebuilt
// block to be stored with.
type stripeRepair struct {
	stripeOp
	job        repairJob
	candidates []int
	buf        []byte   // d chunk slots, pooled
	free       [][]byte // slots no landed chunk holds
	pick       []int    // this round's plan: the helpers to ask
	helpers    []int
	chunks     [][]byte
	asked      int // chunks requested: d, plus one per spare promoted
	traffic    int
	t0         time.Time

	slots     []uint32 // d+1 record slots of n CRCs: a round's asks', then rec's
	rec       []uint32 // the first stripe record a chunk brought, nil until one does
	unchecked bool     // a chunk landed from a helper that did not verify its block
	want      uint32   // the lost block's CRC32C, as the record that came with it says
	disagree  bool     // another such chunk's record says otherwise
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

// asks asks each picked helper for its chunk, into a free slot, and for
// its stripe record, into a record slot.
func (r *stripeRepair) asks() (string, []ask) {
	failed, n := uint32(r.job.ref.Block), r.s.code.N()
	round := slices.Grow(r.round[:0], len(r.pick))
	for k, h := range r.pick {
		rec := r.slots[k*n : k*n : (k+1)*n]
		round = append(round, ask{block: h, args: [2]uint32{uint32(h), failed}, buf: r.free[len(r.free)-1], rec: rec})
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
		if len(a.rec) > 0 {
			r.record(a.rec)
		}
	}
}

// record takes the stripe record that came with a chunk whose helper did
// not verify its block: the rebuilt block must match its entry for the
// lost block, as it must every other such record's. The first is kept
// whole, for the rebuilt block.
func (r *stripeRepair) record(rec []uint32) {
	failed := r.job.ref.Block
	if r.rec == nil {
		n := r.s.code.N()
		r.rec = append(r.slots[len(r.slots)-n:len(r.slots)-n], rec...)
	}
	switch {
	case failed >= len(rec):
		r.disagree = true
	case !r.unchecked:
		r.want = rec[failed]
	case rec[failed] != r.want:
		r.disagree = true
	}
	r.unchecked = true
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

// repairBatch sends one batch of repairs — stripes of one file with one
// failed index — to its newcomer, the failed index's home server, as one
// rebuild exchange (Client.rebuild): the newcomer fetches the chunks,
// rebuilds and stores the blocks (rebuildBatch), so what crosses this
// store's sockets is the request and its answer, and no block or chunk. It
// is behind Repair, Scrub and RecoverServer. The throttle, when set, is
// charged the batch's d chunks and rebuilt block per stripe before the
// request goes out, so recovery coexists with foreground reads. moved[j]
// and errs[j] receive job j's winning traffic and outcome as the newcomer
// answers them — or, when the exchange itself fails, that failure for
// every job of the batch — and the batch returns each helper's winning
// chunks by block index (nil when the exchange failed) and its root cause,
// naming its job.
func (s *Store) repairBatch(ctx context.Context, jobs []repairJob, batch []int, moved []int, errs []error, throttle *tokenBucket) ([]int64, error) {
	first := jobs[batch[0]]
	failed := first.ref.Block
	ctx, sp := obs.ChildSpan(ctx, "rebuild")
	sp.SetAttr("file", first.file).SetAttr("stripe", first.ref.Stripe).SetAttr("stripes", len(batch)).SetAttr("failed", failed).SetAttr("newcomer", s.addrs[failed])
	defer sp.End()

	req := &rebuildRequest{File: first.file, Stripes: make([]int, len(batch)), Failed: failed, BlockSize: s.blockSize, Addrs: s.addrs, Hedge: s.hedge}
	for i, j := range batch {
		req.Stripes[i] = jobs[j].ref.Stripe
	}
	var res *rebuildResult
	err := throttle.Wait(ctx, len(batch)*(s.code.D()*s.code.HelperChunkSize(s.blockSize)+s.blockSize))
	if err == nil {
		err = s.pool.WithClient(ctx, s.addrs[failed], func(c *Client) (err error) {
			res, err = c.rebuild(ctx, req)
			return err
		})
		// The rebuilt blocks are byte-identical to what the code first
		// produced, but the cache generation is bumped all the same, in case
		// a reader cached a stripe decoded from a corrupt block they replace.
		if s.cache != nil {
			s.cache.Invalidate(first.file)
		}
	}
	if err != nil {
		err = classify(err) // a context that ended before the exchange began is a timeout too
		for _, j := range batch {
			errs[j] = err
		}
		err = jobErr(first, err)
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	traffic := 0
	for i, j := range batch {
		moved[j], errs[j] = res.Traffic[i], res.Errs[i]
		traffic += moved[j]
	}
	sp.SetAttr("traffic_bytes", traffic)
	if i, err := pipelineErr(ctx, res.Errs, len(res.Errs)); err != nil {
		err = jobErr(jobs[batch[i]], err)
		sp.SetAttr("error", err.Error())
		return res.Chunks, err
	}
	return res.Chunks, nil
}

// rebuildBatch is the one repair engine, run where the lost blocks land:
// a newcomer runs it for each rebuild request, on a Store over its own
// pool (Server.rebuild). It rebuilds block failed of each of the file's
// stripes as one batch of the stripe loop (runBatch), with opChunk for its op:
// every stripe plans the next d − len(helpers) available survivors in its
// rotated ring order, so a healthy batch is one round of n−1 exchanges of
// d chunks each — the paper's optimal traffic in one round trip per block
// — and every struck helper costs its stripe one spare in a later round.
// A stripe with d chunks decodes and is committed to the newcomer's map
// (finish) on its own goroutine while the others' rounds go on. Each
// stripe's rotated ring is built once: the repair plan of its first d
// entries is warmed before the first round, so no decode stalls on
// compiling one, and the whole ring is the stripe's candidates. It
// returns each stripe's winning traffic and outcome, in order, and each
// helper's winning chunks, by block index.
func (s *Store) rebuildBatch(ctx context.Context, file string, stripes []int, failed int) (traffic []int, errs []error, chunks []int64) {
	n, d := s.code.N(), s.code.D()
	chunkSize := s.code.HelperChunkSize(s.blockSize)
	ctx, sp := obs.ChildSpan(ctx, "store.repair")
	sp.SetAttr("file", file).SetAttr("stripe", stripes[0]).SetAttr("stripes", len(stripes)).SetAttr("failed", failed)
	defer sp.End()
	traffic, errs, chunks = make([]int, len(stripes)), make([]error, len(stripes)), make([]int64, n)

	repairs := make([]stripeRepair, len(stripes))
	_, wsp := obs.ChildSpan(ctx, "warm")
	for i, st := range stripes {
		repairs[i].candidates = rotatedSurvivors(n, failed, st)
		if err := s.code.WarmRepair(failed, repairs[i].candidates[:d]); err != nil {
			wsp.End()
			for i := range errs {
				errs[i] = fmt.Errorf("repair plan warm: %w", err)
			}
			return traffic, errs, chunks
		}
	}
	wsp.End()

	l := leaseLoop()
	defer l.release()
	slots := make([]uint32, len(stripes)*(d+1)*n)
	for i, st := range stripes {
		r := &repairs[i]
		*r = stripeRepair{
			stripeOp:   stripeOp{s: s, ctx: ctx, file: file, st: st},
			job:        repairJob{file: file, ref: BlockRef{Stripe: st, Block: failed}},
			candidates: r.candidates,
			buf:        bufpool.Get(d * chunkSize),
			free:       make([][]byte, d),
			helpers:    make([]int, 0, d),
			chunks:     make([][]byte, 0, d),
			t0:         time.Now(),
			slots:      slots[i*(d+1)*n : (i+1)*(d+1)*n : (i+1)*(d+1)*n],
		}
		for k := range r.free {
			r.free[k] = r.buf[k*chunkSize : (k+1)*chunkSize : (k+1)*chunkSize]
		}
		l.tasks = append(l.tasks, r)
	}
	s.runBatch(ctx, opChunk, l)
	total := 0
	for i := range repairs {
		traffic[i], errs[i] = repairs[i].traffic, repairs[i].err
		total += traffic[i]
		for _, h := range repairs[i].helpers {
			chunks[h]++
		}
	}
	sp.SetAttr("traffic_bytes", total)
	if _, err := pipelineErr(ctx, errs, len(errs)); err != nil {
		sp.SetAttr("error", err.Error())
	}
	return traffic, errs, chunks
}

// finish decodes the stripe's lost block from its d chunks straight into
// a fresh exact-size block — the newcomer's map keeps it, as it keeps a
// put's, but never a spare of a retired block: a recovery deletes the very
// blocks it rebuilds, so a spare could already hold the bytes the rebuild
// is checked against and hide a decode that failed to write them — and
// checksums it granule by granule while it is still in cache: its
// at-rest checksums, whose combine is the block's CRC32C. When a chunk
// came from a helper that did not verify its block, that CRC must match
// what each such chunk's stripe record says the block is, or the stripe
// falls back (recheck). Then finish recycles the chunks and commits the
// block to the newcomer through the function a put stores with, with its
// granule CRCs and the record, its entry for the block set to the CRC, so
// the newcomer serves later repairs unverified too.
func (r *stripeRepair) finish() error {
	s, ctx := r.s, r.ctx
	st, failed := r.job.ref.Stripe, r.job.ref.Block
	_, dsp := obs.ChildSpan(ctx, "decode")
	block := make([]byte, s.blockSize)
	err := s.code.RepairBlockInto(failed, r.helpers, r.chunks, block)
	rec := r.rec
	if failed >= len(rec) {
		rec = nil
	}
	grain := s.home.grain(len(block))
	per := frame.Granules(len(block), grain)
	at := make([]uint32, per+len(rec)) // the block's granule CRCs, then its record
	crc := granuleCRCs(block, grain, at[:per])
	dsp.SetAttr("stripe", st).SetAttr("block_bytes", len(block)).SetAttr("crc_bytes", len(block))
	dsp.End()
	if err == nil && r.unchecked && (r.disagree || crc != r.want) {
		if again, err := r.recheck(); err != nil || again {
			return err
		}
	}
	r.release()
	if err != nil {
		return err
	}
	if rec != nil {
		copy(at[per:], rec)
		at[per+failed] = crc
	}
	var name nameList
	if name.addBlock(r.job.file, st, failed); name.err != nil {
		return name.err
	}
	s.home.commit(name.wire, []storedBlock{{data: block, crcs: at[:per:per], rec: at[per:]}})
	return nil
}

// recheck is the fallback of a stripe whose rebuilt block does not match
// its stripe records: it asks every helper to verify its block, as each
// would have before computing its chunk without a record. A helper that
// does not answer intact is struck from the stripe, its chunk dropped.
// When none is struck the block stands — records that disagree with
// intact blocks are a stripe torn between two writes, which Scrub reports
// — and recheck reports false. Otherwise the stripe is repaired again, as
// a batch of its own, whose outcome, the block stored, is recheck's error.
func (r *stripeRepair) recheck() (again bool, err error) {
	s, ctx := r.s, r.ctx
	_, sp := obs.ChildSpan(ctx, "recheck")
	sp.SetAttr("stripe", r.st).SetAttr("helpers", len(r.helpers))
	verdicts := fanOut(len(r.helpers), func(k int) error {
		h := r.helpers[k]
		return s.pool.WithClient(ctx, s.addrs[h], func(c *Client) error {
			c.oneBatch(false).names.addBlock(r.file, r.st, h)
			_, err := c.single(ctx, opVerify, [2]uint32{}, nil)
			return err
		})
	})
	kept := 0
	for k, h := range r.helpers {
		if verdicts[k] == nil {
			r.helpers[kept], r.chunks[kept] = h, r.chunks[k]
			kept++
			continue
		}
		// Struck dead, even on a timeout: the chunk is not to be trusted,
		// nor asked for again, and it is not a winning chunk.
		r.strike(h, fmt.Errorf("helper %d: its chunk did not rebuild the recorded block, and its verify: %v", h, verdicts[k]))
		r.free, r.traffic = append(r.free, r.chunks[k]), r.traffic-len(r.chunks[k])
	}
	struck := len(r.helpers) - kept
	r.helpers, r.chunks = r.helpers[:kept], r.chunks[:kept]
	sp.SetAttr("struck", struck)
	sp.End()
	if struck == 0 {
		return false, nil
	}
	r.unchecked, r.disagree = false, false
	l := leaseLoop()
	l.tasks = append(l.tasks, rerun{r})
	s.runBatch(ctx, opChunk, l)
	l.release()
	return true, r.err
}

// rerun is a stripe repaired again after its recheck struck a helper: a
// batch of its own inside the stripe's finish, which the stripe's own
// batch ends, so this one must not.
type rerun struct{ *stripeRepair }

func (rerun) done() {}

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
