package blockserver

import (
	"context"
	"fmt"
	"sync"
	"time"

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
// contributes exactly one lost block. Repairs run through the bounded
// pipeline (stripesInFlight at once): one stripe's helper chunk fetches
// overlap its neighbors' RepairBlock decode and newcomer writeback, all
// over the store's shared connection pool and buffer pool. Helper
// selection rotates with the stripe index so repair load spreads over all
// n-1 survivors, and WithRecoveryBandwidth paces the pass.
//
// The failed server's address must be accepting writes again (restarted
// empty, or a replacement at the same address): regenerated blocks are
// written back to their home. The first repair failure cancels the
// launch of later stripes; the report covers the work done either way.
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
	traffic, repaired, err := s.repairMany(ctx, jobs, stripesInFlight, repairOpts{throttle: tb, onHelper: onHelper})
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

// repairMany runs block repairs through the bounded pipeline: up to conc
// repairs are in flight, so one stripe's chunk fetches overlap its
// neighbors' decode and writeback, and the first failure cancels the
// launch of later jobs (in-flight repairs drain). It reports the helper
// bytes moved, the jobs that completed (in job order), and the root-cause
// failure naming its job.
func (s *Store) repairMany(ctx context.Context, jobs []repairJob, conc int, ro repairOpts) (traffic int64, repaired []repairJob, err error) {
	moved := make([]int, len(jobs))
	errs, launched := pipeline(ctx, len(jobs), conc, func(ctx context.Context, i int) (err error) {
		j := jobs[i]
		moved[i], err = s.repair(ctx, j.file, j.ref.Stripe, j.ref.Block, ro)
		return err
	})
	for i, j := range jobs[:launched] {
		traffic += int64(moved[i])
		if errs[i] == nil {
			repaired = append(repaired, j)
		}
	}
	if i, err := pipelineErr(ctx, errs, launched); err != nil {
		j := jobs[i]
		return traffic, repaired, fmt.Errorf("%s stripe %d block %d: %w", j.file, j.ref.Stripe, j.ref.Block, err)
	}
	return traffic, repaired, nil
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
