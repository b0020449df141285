package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/bufpool"
	"carousel/internal/carousel"
	"carousel/internal/codeplan"
	"carousel/internal/gf256"
	"carousel/internal/reedsolomon"
	"carousel/internal/stripecache"
	"carousel/internal/workload"
	"carousel/internal/workpool"
)

// timeCall returns the median time of one call to fn, in nanoseconds,
// measured in batches for about budget in all. A batch is sized to last
// long enough that the clock reads around it do not show.
func timeCall(budget time.Duration, fn func()) float64 {
	fn()
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if d := time.Since(t0); d >= budget/16 || d >= 20*time.Millisecond {
			break
		}
		batch *= 2
	}
	var per []float64
	for end := time.Now().Add(budget); len(per) < 3 || time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(per)
}

// allocsPerCall returns the bytes and objects one call to fn allocates,
// averaged over n calls.
func allocsPerCall(n int, fn func()) (bytes, objects float64) {
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// mbps and gbps turn bytes per call and nanoseconds per call into rates
// (10^6 and 10^9 bytes per second).
func mbps(bytes int, ns float64) float64 { return float64(bytes) / ns * 1e3 }
func gbps(bytes int, ns float64) float64 { return float64(bytes) / ns }

// walkCalls is how many calls walkLayers and walkRPC time with timeCall.
const walkCalls = 23

// walkLayers times calls into each layer's public functions at the
// fixture's block size, in about total time split evenly over the calls,
// and puts the results in m. The Store is idle while it runs.
func walkLayers(ctx context.Context, f *fixture, total time.Duration, m metrics) error {
	budget := total / walkCalls
	block := f.block
	unit := block / f.code.UnitsPerBlock()
	nproc := runtime.GOMAXPROCS(0)

	// gf256: the kernels on one unit, the size codeplan hands them.
	src := workload.Text(unit, 1)
	dst := make([]byte, unit)
	m.set("gf256.mul_add_gbps", gbps(unit, timeCall(budget, func() { gf256.MulAddSlice(0x1d, src, dst) })))
	m.set("gf256.mul_gbps", gbps(unit, timeCall(budget, func() { gf256.MulSlice(0x1d, src, dst) })))
	m.set("gf256.add_gbps", gbps(unit, timeCall(budget, func() { gf256.AddSlice(src, dst) })))

	// codeplan: the encode schedule of the code's generator.
	gen := f.code.GeneratorMatrix()
	var plan *codeplan.Plan
	m.set("codeplan.compile_us", timeCall(budget, func() { plan = codeplan.Compile(gen) })/1e3)
	counts := plan.Counts()
	m.set("codeplan.muladd_ops", float64(counts.Mul+counts.MulAdd))
	data := workload.Text(f.stripe, 2)
	in := make([][]byte, plan.NumIn())
	for i := range in {
		in[i] = data[i*unit : (i+1)*unit]
	}
	out := make([][]byte, plan.NumOut())
	for i := range out {
		out[i] = make([]byte, unit)
	}
	m.set("codeplan.encode_run_gbps", gbps(f.stripe, timeCall(budget, func() { plan.Run(in, out) })))

	// carousel: the codec calls the Store makes, on one stripe.
	var code *carousel.Code
	var err error
	m.set("carousel.new_ms", timeCall(budget, func() { code, err = carousel.New(codeN, codeK, codeD, codeP) })/1e6)
	if err != nil {
		return err
	}
	shards := make([][]byte, codeK)
	for i := range shards {
		shards[i] = data[i*block : (i+1)*block]
	}
	var blocks [][]byte
	m.set("carousel.encode_mbps", mbps(f.stripe, timeCall(budget, func() { blocks, err = code.Encode(shards) })))
	if err != nil {
		return err
	}
	encBytes, _ := allocsPerCall(20, func() { code.Encode(shards) })
	m.set("carousel.encode_alloc_bytes_per_user_byte", encBytes/float64(f.stripe))
	stripe := make([]byte, f.stripe)
	m.set("carousel.parallel_read_mbps", mbps(f.stripe, timeCall(budget, func() { err = code.ParallelReadInto(blocks, stripe) })))
	if err != nil {
		return err
	}
	// Any-k decode from four data-bearing and two parity-only blocks, the
	// kind of mix the fastest-k race hands the Store.
	anyK := make([][]byte, codeN)
	for _, i := range []int{0, 1, 3, 4, 10, 11} {
		anyK[i] = blocks[i]
	}
	m.set("carousel.decode_anyk_mbps", mbps(f.stripe, timeCall(budget, func() { _, err = code.Decode(anyK) })))
	if err != nil {
		return err
	}
	avail := make([]bool, codeN)
	for i := range avail {
		avail[i] = i != deadServer
	}
	m.set("carousel.plan_read_us", timeCall(budget, func() { _, err = code.PlanRead(avail, block) })/1e3)
	if err != nil {
		return err
	}
	var chunk []byte
	m.set("carousel.helper_chunk_mbps", mbps(block, timeCall(budget, func() { chunk, err = code.HelperChunk(0, failedServer, blocks[0]) })))
	if err != nil {
		return err
	}
	helpers := make([]int, 0, codeD)
	chunks := make([][]byte, 0, codeD)
	for h := 0; len(helpers) < codeD; h++ {
		if h == failedServer {
			continue
		}
		if chunk, err = code.HelperChunk(h, failedServer, blocks[h]); err != nil {
			return err
		}
		helpers = append(helpers, h)
		chunks = append(chunks, chunk)
	}
	m.set("carousel.repair_block_mbps", mbps(block, timeCall(budget, func() { _, err = code.RepairBlock(failedServer, helpers, chunks) })))
	if err != nil {
		return err
	}

	// reedsolomon: the paper's baseline at the same n, k and block size.
	rs, err := reedsolomon.New(codeN, codeK)
	if err != nil {
		return err
	}
	m.set("reedsolomon.encode_mbps", mbps(f.stripe, timeCall(budget, func() { _, err = rs.Encode(shards) })))
	if err != nil {
		return err
	}

	// workpool, bufpool: the fixed cost every operation pays.
	m.set("workpool.dispatch_us", timeCall(budget, func() { workpool.Parallel(8, nproc, func(int) {}) })/1e3)
	m.set("bufpool.get_put_ns", timeCall(budget, func() { bufpool.Put(bufpool.Get(block)) }))

	if err := walkRPC(ctx, f, budget, m, blocks[codeN-1]); err != nil {
		return err
	}

	// stripecache: a cache of its own holding decoded stripes of this size.
	cache := stripecache.New(int64(64 * 16 * f.stripe))
	cache.Put("walk", 0, data)
	m.set("stripecache.get_hit_ns", timeCall(budget, func() { cache.Get("walk", 0, stripe) }))
	churn := stripecache.New(int64(4 * 16 * f.stripe))
	n := 0
	m.set("stripecache.put_ns", timeCall(budget, func() { churn.Put("walk", n, stripe); n++ }))
	return nil
}

// walkRPC times single RPCs over one client of its own against the live
// servers; block is a block's worth of bytes to Put.
func walkRPC(ctx context.Context, f *fixture, budget time.Duration, m metrics, block []byte) error {
	// Server 0 holds block 0 of every stripe and is alive in every workload.
	const server = 0
	addr := f.addrs[server]
	name := blockserver.BlockName(f.objects[0].name, 0, server)
	var cl *blockserver.Client
	var err error
	m.set("rpc.dial_us", timeCall(budget, func() {
		if cl != nil {
			cl.Close()
		}
		cl, err = blockserver.DialContext(ctx, addr, blockserver.Options{})
	})/1e3)
	if err != nil {
		return err
	}
	defer cl.Close()

	lo, hi := f.code.DataRange(server, f.block)
	buf := make([]byte, hi-lo)
	// The per-message cost is reported at the small block's data range under
	// every workload, so it is one number across them.
	_, smallRange := f.code.DataRange(0, smallBlock)
	m.set("rpc.get_range_small_us", timeCall(budget, func() { err = cl.GetRangeInto(ctx, name, 0, buf[:smallRange]) })/1e3)
	if err != nil {
		return err
	}
	_, objects := allocsPerCall(200, func() { cl.GetRangeInto(ctx, name, 0, buf[:smallRange]) })
	m.set("rpc.allocs_per_get", objects)
	m.set("rpc.get_range_block_mbps", mbps(len(buf), timeCall(budget, func() { err = cl.GetRangeInto(ctx, name, 0, buf) })))
	if err != nil {
		return err
	}
	m.set("rpc.put_block_mbps", mbps(len(block), timeCall(budget, func() { err = cl.Put(ctx, "walk/put", block) })))
	if err != nil {
		return err
	}
	if err := cl.Delete(ctx, "walk/put"); err != nil {
		return err
	}
	m.set("rpc.chunk_us", timeCall(budget, func() {
		var chunk []byte
		chunk, err = cl.Chunk(ctx, name, server, failedServer)
		blockserver.Recycle(chunk)
	})/1e3)
	if err != nil {
		return err
	}
	pool := f.store.Pool()
	m.set("pool.checkout_ns", timeCall(budget, func() {
		var c *blockserver.Client
		if c, err = pool.Get(ctx, addr); err == nil {
			pool.Put(c)
		}
	}))
	if err != nil {
		return err
	}

	// A port nothing listens on: what one call to a dead peer costs under
	// the default retry policy before it gives up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dead := ln.Addr().String()
	ln.Close()
	gone := blockserver.NewClient(dead, blockserver.Options{})
	defer gone.Close()
	var fails []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := gone.Get(ctx, name); err == nil {
			return fmt.Errorf("a Get against closed port %s succeeded", dead)
		}
		fails = append(fails, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m.set("rpc.dead_peer_fail_ms", median(fails))
	return nil
}
