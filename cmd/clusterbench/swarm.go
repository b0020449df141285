package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"carousel/internal/bench"
	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/faultnet"
	"carousel/internal/workload"
)

// figSwarm is the hot-read measurement vehicle: an open-loop Poisson
// swarm over a Zipf object population, A/B'ing the stripe cache off vs on
// at the same offered load, plus both again under faultnet straggler
// injection. Open loop means arrivals do not wait for completions — the
// generator paces requests by absolute arrival times drawn from a seeded
// exponential inter-arrival process, so an overloaded variant queues (and
// sheds above the client cap) instead of silently slowing the load down,
// the coordinated-omission trap closed-loop benchmarks fall into.
// Latency is measured from each request's scheduled arrival; every
// completed read's sample is kept, so the percentiles are exact.
//
// The offered rate is calibrated once — a short closed-loop probe of the
// cache-off store, multiplied by swarmOverload — and then held identical
// for every variant, so the A/B compares engines at equal offered load.
// The Zipf object sequence is seeded and drawn single-threaded by the
// dispatcher, so every variant (and every host) replays the identical
// request sequence.
func figSwarm(o options) error {
	objs, maxClients := max(o.swarmObjs, 8), max(o.swarmClients, 16)
	cacheMiB, dur, rate, seed := o.swarmCache, o.swarmDur, o.swarmRate, o.swarmSeed
	if dur <= 0 {
		dur = 3 * time.Second
	}
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		return err
	}
	k := code.K()
	// One stripe per object, ~24 KiB of original data: the small-object
	// regime a hot-read cache serves (EC-Cache style), where per-request
	// overhead and round trips dominate, not wire bandwidth.
	blockSize := (24 << 10) / k
	blockSize -= blockSize % code.BlockAlign()
	if blockSize <= 0 {
		blockSize = code.BlockAlign()
	}
	objSize := k * blockSize
	bench.Section(os.Stdout, fmt.Sprintf(
		"Swarm: open-loop Zipf(s=%.1f) over %d x %d KiB objects, Carousel(12,6,10,10), cache %d MiB, up to %d clients",
		swarmZipfS, objs, objSize>>10, cacheMiB, maxClients))

	// Every server sits behind a faultnet injector so the straggler
	// variants can slow a subset down without rebooting the cluster.
	srvs := make([]*blockserver.Server, code.N())
	addrs := make([]string, code.N())
	injectors := make([]*faultnet.Injector, code.N())
	for i := range srvs {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		injectors[i] = faultnet.NewInjector()
		srvs[i] = blockserver.NewServer(code)
		addr, err := srvs[i].StartListener(injectors[i].Wrap(raw))
		if err != nil {
			return err
		}
		defer srvs[i].Close()
		addrs[i] = addr
	}

	// Seed the population once; the variants' stores share the servers.
	names := make([]string, objs)
	{
		seedStore, err := blockserver.NewStore(code, addrs, blockSize)
		if err != nil {
			return err
		}
		ctx := context.Background()
		for i := range names {
			names[i] = fmt.Sprintf("swarm/obj%04d", i)
			if _, err := seedStore.WriteFile(ctx, names[i], workload.Text(objSize, seed+int64(i))); err != nil {
				seedStore.Close()
				return err
			}
		}
		seedStore.Close()
	}

	// Calibrate the offered load on the cache-off engine, then overload it:
	// the open-loop generator offers swarmOverload times what the uncached
	// store can sustain, which is exactly the regime where a hot-set cache
	// is the difference between serving and drowning.
	if rate <= 0 {
		capacity, err := swarmCalibrate(code, addrs, blockSize, names, objSize, seed)
		if err != nil {
			return err
		}
		rate = capacity * swarmOverload
		fmt.Printf("calibrated: cache-off closed-loop capacity %.0f reads/s; offering %.0f reads/s (%.1fx)\n\n",
			capacity, rate, swarmOverload)
	} else {
		fmt.Printf("offered load pinned by -swarmrate: %.0f reads/s\n\n", rate)
	}

	variants := []swarmVariant{
		{"cache-off", 0, 0},
		{"cache-on", cacheMiB, 0},
		{"cache-off+stragglers", 0, swarmStragglers},
		{"cache-on+stragglers", cacheMiB, swarmStragglers},
	}
	t := bench.NewTable(os.Stdout, "case", "reads/s", "MB/s", "p50 ms", "p99 ms", "p999 ms", "hit %", "shed")
	results := make([]swarmEntry, 0, len(variants))
	for _, v := range variants {
		for i := 0; i < v.stragglers && i < len(injectors); i++ {
			injectors[i].SetDefault(faultnet.Policy{DelayWrite: swarmStragglerDelay})
		}
		e, err := swarmPass(code, addrs, blockSize, names, objSize, v, rate, dur, maxClients, seed)
		for i := 0; i < v.stragglers && i < len(injectors); i++ {
			injectors[i].SetDefault(faultnet.Policy{})
		}
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		results = append(results, e)
		hitCell := "-"
		if v.cacheMiB > 0 {
			hitCell = fmt.Sprintf("%.1f", e.CacheHitRate*100)
		}
		t.Row(v.name, e.OpsPerS, e.MBPerS, e.P50MS, e.P99MS, e.P999MS, hitCell, e.Shed)
	}
	t.Flush()
	if off, on := results[0], results[1]; off.OpsPerS > 0 {
		fmt.Printf("cache-on vs cache-off at equal offered load: %.2fx reads/s (%.0f vs %.0f), p99 %.2f ms vs %.2f ms\n",
			on.OpsPerS/off.OpsPerS, on.OpsPerS, off.OpsPerS, on.P99MS, off.P99MS)
	}
	if off, on := results[2], results[3]; off.OpsPerS > 0 {
		fmt.Printf("with %d stragglers (+%s per response write): %.2fx reads/s, p99 %.2f ms vs %.2f ms\n",
			swarmStragglers, swarmStragglerDelay, on.OpsPerS/off.OpsPerS, on.P99MS, off.P99MS)
	}
	fmt.Println()
	if o.jsonOut {
		return writeBenchJSON(swarmSection{
			Objects:    objs,
			ObjectKiB:  objSize >> 10,
			ZipfS:      swarmZipfS,
			Seed:       seed,
			DurationS:  dur.Seconds(),
			RatePerS:   rate,
			MaxClients: maxClients,
			Code:       "Carousel(12,6,10,10)",
			Results:    results,
		})
	}
	return nil
}

// benchJSONPath is the snapshot -fig swarm -json writes (`make bench-swarm`).
const benchJSONPath = "BENCH_clusterbench.json"

// writeBenchJSON replaces the snapshot with this run's swarm section.
func writeBenchJSON(sec swarmSection) error {
	out, err := json.MarshalIndent(map[string]swarmSection{"swarm": sec}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(benchJSONPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", benchJSONPath)
	return nil
}

// quantile returns the nearest-rank q-quantile of an ascending slice: the
// smallest sample with at least q of the samples at or below it (0 for no
// samples). It is always one of the samples, never an interpolation.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

const (
	// swarmZipfS is the population skew; s≈1.1 is the classic web-object
	// popularity exponent.
	swarmZipfS = 1.1
	// swarmOverload multiplies the calibrated cache-off capacity into the
	// offered open-loop rate.
	swarmOverload = 3.0
	// swarmStragglers is how many servers the straggler variants slow, and
	// swarmStragglerDelay how much each of their response writes is delayed.
	swarmStragglers     = 2
	swarmStragglerDelay = 15 * time.Millisecond
	// swarmHedge is the uniform hedge deadline: low enough that a straggler
	// is struck and planned around instead of stalling the pipeline.
	swarmHedge = 75 * time.Millisecond
	// swarmDrainGrace bounds how long a pass waits for queued requests
	// after the arrival window closes before cancelling the stragglers.
	swarmDrainGrace = 15 * time.Second
)

// swarmVariant is one engine configuration of the swarm A/B.
type swarmVariant struct {
	name       string
	cacheMiB   int
	stragglers int
}

// swarmEntry is one variant's measured row in the JSON snapshot.
type swarmEntry struct {
	Case       string `json:"case"`
	CacheMiB   int    `json:"cache_mib"`
	Stragglers int    `json:"stragglers"`
	// Ops counts completed reads; Errors failed reads; Shed arrivals
	// rejected because maxClients requests were already in flight (the
	// open-loop overload signal).
	Ops     int64   `json:"ops"`
	Errors  int64   `json:"errors"`
	Shed    int64   `json:"shed"`
	OpsPerS float64 `json:"ops_per_s"`
	MBPerS  float64 `json:"mb_per_s"`
	// Nearest-rank latency quantiles over every completed read, from the
	// scheduled arrival time (queueing included).
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	// PeakClients is the highest concurrent in-flight count observed.
	PeakClients int64 `json:"peak_clients"`
	// CacheHitRate and CoalescedWaiters come from the store's cache
	// instance (zero for the cache-off variants).
	CacheHitRate     float64 `json:"cache_hit_rate"`
	CoalescedWaiters int64   `json:"coalesced_waiters"`
}

// swarmSection is the "swarm" object of BENCH_clusterbench.json.
type swarmSection struct {
	Objects    int          `json:"objects"`
	ObjectKiB  int          `json:"object_kib"`
	ZipfS      float64      `json:"zipf_s"`
	Seed       int64        `json:"seed"`
	DurationS  float64      `json:"duration_s"`
	RatePerS   float64      `json:"rate_per_s"`
	MaxClients int          `json:"max_clients"`
	Code       string       `json:"code"`
	Results    []swarmEntry `json:"results"`
}

// swarmCalibrate measures the cache-off store's closed-loop read capacity
// with a small worker pool — the baseline the open-loop rate overloads.
func swarmCalibrate(code *carousel.Code, addrs []string, blockSize int, names []string, objSize int, seed int64) (float64, error) {
	st, err := blockserver.NewStore(code, addrs, blockSize,
		blockserver.WithHedgeDelay(swarmHedge))
	if err != nil {
		return 0, err
	}
	defer st.Close()
	const workers = 12
	const probe = 1200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), probe)
	defer cancel()
	var ops atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := workload.Fork(swarmZipfS, len(names), seed, w)
			for ctx.Err() == nil {
				if _, _, err := st.ReadFile(ctx, names[z.Next()], objSize); err == nil {
					ops.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if elapsed <= 0 || ops.Load() == 0 {
		return 0, fmt.Errorf("calibration made no progress")
	}
	return float64(ops.Load()) / elapsed, nil
}

// swarmPass runs one variant under the shared offered load and returns
// its measured row.
func swarmPass(code *carousel.Code, addrs []string, blockSize int, names []string, objSize int,
	v swarmVariant, rate float64, dur time.Duration, maxClients int, seed int64) (swarmEntry, error) {
	opts := []blockserver.StoreOption{blockserver.WithHedgeDelay(swarmHedge)}
	if v.cacheMiB > 0 {
		opts = append(opts, blockserver.WithStripeCache(int64(v.cacheMiB)<<20))
	}
	st, err := blockserver.NewStore(code, addrs, blockSize, opts...)
	if err != nil {
		return swarmEntry{}, err
	}
	defer st.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One latency sample (ns) per completed read, under mu; the capacity is
	// the expected arrivals, capped because -swarmrate is free input.
	var mu sync.Mutex
	samples := make([]int64, 0, int(min(rate*dur.Seconds()+1024, 1<<20)))
	var errs, shed, inflight, peak atomic.Int64
	tokens := make(chan struct{}, maxClients)
	// The object sequence is drawn single-threaded here, from the same
	// seed for every variant: identical request streams, only the engine
	// differs. The arrival process has its own seeded source.
	z := workload.NewZipf(swarmZipfS, len(names), seed)
	arrivals := rand.New(rand.NewSource(seed ^ 0x51e55))
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	deadline := start.Add(dur)
	for next.Before(deadline) {
		// Absolute-time pacing: falling behind shortens the next sleep
		// instead of stretching the schedule (open loop, no coordinated
		// omission).
		next = next.Add(time.Duration(arrivals.ExpFloat64() * float64(time.Second) / rate))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		name := names[z.Next()]
		select {
		case tokens <- struct{}{}:
		default:
			// maxClients requests already in flight: the variant is drowning
			// and this arrival is shed (admission control, counted — not
			// silently slowing the generator down).
			shed.Add(1)
			continue
		}
		arrival := next
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-tokens }()
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			defer inflight.Add(-1)
			out, _, err := st.ReadFile(ctx, name, objSize)
			if err != nil || len(out) != objSize {
				errs.Add(1)
				return
			}
			lat := time.Since(arrival).Nanoseconds()
			mu.Lock()
			samples = append(samples, lat)
			mu.Unlock()
		}()
	}
	// Drain the queue: requests already admitted finish (their latency is
	// real and belongs in the tail), bounded by the grace period.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(swarmDrainGrace):
		cancel()
		<-done
	}
	elapsed := time.Since(start).Seconds()
	slices.Sort(samples)
	ops := float64(len(samples))
	e := swarmEntry{
		Case:        v.name,
		CacheMiB:    v.cacheMiB,
		Stragglers:  v.stragglers,
		Ops:         int64(len(samples)),
		Errors:      errs.Load(),
		Shed:        shed.Load(),
		OpsPerS:     ops / elapsed,
		MBPerS:      ops * float64(objSize) / elapsed / 1e6,
		P50MS:       float64(quantile(samples, 0.50)) / 1e6,
		P99MS:       float64(quantile(samples, 0.99)) / 1e6,
		P999MS:      float64(quantile(samples, 0.999)) / 1e6,
		PeakClients: peak.Load(),
	}
	if c := st.Cache(); c != nil {
		cs := c.Stats()
		if total := cs.Hits + cs.Misses; total > 0 {
			e.CacheHitRate = float64(cs.Hits) / float64(total)
		}
		e.CoalescedWaiters = cs.CoalescedWaiters
	}
	return e, nil
}
