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

func TestRotatedSurvivors(t *testing.T) {
	// rot 0 is ascending order.
	got := rotatedSurvivors(6, 2, 0)
	want := []int{0, 1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rot 0 = %v, want %v", got, want)
		}
	}
	// Rotation r starts the ring at survivor r and wraps.
	got = rotatedSurvivors(6, 2, 2)
	want = []int{3, 4, 5, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rot 2 = %v, want %v", got, want)
		}
	}
	// Every rotation is a permutation of the survivor set, never
	// contains the failed index, and rotations a ring-length apart agree.
	for rot := 0; rot < 13; rot++ {
		ring := rotatedSurvivors(6, 2, rot)
		seen := make(map[int]bool)
		for _, i := range ring {
			if i == 2 {
				t.Fatalf("rot %d contains failed index: %v", rot, ring)
			}
			if seen[i] {
				t.Fatalf("rot %d has duplicate: %v", rot, ring)
			}
			seen[i] = true
		}
		if len(ring) != 5 {
			t.Fatalf("rot %d has %d survivors, want 5", rot, len(ring))
		}
		wrap := rotatedSurvivors(6, 2, rot+5)
		for i := range ring {
			if ring[i] != wrap[i] {
				t.Fatalf("rot %d and rot %d disagree: %v vs %v", rot, rot+5, ring, wrap)
			}
		}
	}
}

// deleteServerBlocks removes every block of the file that the failed
// server held, simulating the data loss RecoverServer undoes.
func deleteServerBlocks(t *testing.T, addr, name string, stripes, failed int) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for st := 0; st < stripes; st++ {
		if err := c.Delete(ctx, BlockName(name, st, failed)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverServerParallelByteIdentical is the engine's core contract: a
// failed server's blocks across every stripe are regenerated in parallel,
// the rebuilt file is byte-identical, and rotation spreads winning chunks
// over all n-1 survivors with no helper serving more than 2x the mean.
func TestRecoverServerParallelByteIdentical(t *testing.T) {
	code := mustCode(t) // Carousel(12,6,10,12): ring of 11 survivors
	blockSize := code.BlockAlign() * 8
	stripes := 22 // two full laps of the survivor ring
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(51)).Read(data)

	servers, addrs := startServers(t, code, code.N())
	// The baseline is taken before the store exists and checked after it
	// and the newcomer close (the newcomer's pool parks its helper
	// connections until then, and its accept loop goes with it), so a
	// goroutine the write or the recovery leaves behind shows.
	base := runtime.NumGoroutine()
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	const failed = 3
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)

	rep, err := store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: size}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired != stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
	}
	if want := int64(stripes * blockSize); rep.BytesRecovered != want {
		t.Fatalf("recovered %d bytes, want %d", rep.BytesRecovered, want)
	}
	chunkSize := code.HelperChunkSize(blockSize)
	if want := int64(stripes * code.D() * chunkSize); rep.TrafficBytes != want {
		t.Fatalf("traffic %d bytes, want %d", rep.TrafficBytes, want)
	}

	// Rotation evidence: all n-1 survivors served chunks, and none more
	// than twice the mean.
	if len(rep.HelperChunks) != code.N()-1 {
		t.Fatalf("chunks came from %d helpers, want all %d survivors: %v",
			len(rep.HelperChunks), code.N()-1, rep.HelperChunks)
	}
	var sum, max int64
	for _, c := range rep.HelperChunks {
		sum += c
		if c > max {
			max = c
		}
	}
	mean := float64(sum) / float64(len(rep.HelperChunks))
	if float64(max) > 2*mean {
		t.Fatalf("hottest helper served %d chunks, over 2x the mean %.1f: %v", max, mean, rep.HelperChunks)
	}

	// Every regenerated block must verify clean and the file read exact.
	scr, err := store.Scrub(ctx, "f", size, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(scr.Corrupt)+len(scr.Missing)+len(scr.Unreachable) != 0 {
		t.Fatalf("scrub after recovery: %+v", *scr)
	}
	got, _, err := store.ReadFile(ctx, "f", size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after recovery")
	}
	store.Close()
	servers[failed].Close()
	waitGoroutines(t, base-1)
}

// TestRecoverServerSequentialRotatesHelpers pins that helper selection
// rotates with the stripe index inside one batch: its 8 stripes are one lap
// of the 11-ring, one rebuild exchange, and the pass still spreads its
// chunks over all n-1 survivors instead of the first d, repairs every block
// and the file reads back identical.
func TestRecoverServerSequentialRotatesHelpers(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 4
	stripes := 8 // rotations 0..7 of an 11-ring, d = 10 each: every survivor
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(52)).Read(data)

	_, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	const failed = 0
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)

	jobs := make([]repairJob, stripes)
	for st := range jobs {
		jobs[st] = repairJob{file: "f", ref: BlockRef{Stripe: st, Block: failed}}
	}
	traffic, chunks, repaired, err := store.repairMany(ctx, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	helpers := make(map[int]int64)
	for idx, c := range chunks {
		if c != 0 {
			helpers[idx] = c
		}
	}
	if len(repaired) != stripes {
		t.Fatalf("repaired %d blocks, want %d", len(repaired), stripes)
	}
	if want := int64(stripes * code.D() * code.HelperChunkSize(blockSize)); traffic != want {
		t.Fatalf("traffic %d bytes, want %d", traffic, want)
	}
	if len(helpers) != code.N()-1 {
		t.Fatalf("sequential recovery used %d peers, want all %d survivors: %v",
			len(helpers), code.N()-1, helpers)
	}
	got, _, err := store.ReadFile(ctx, "f", size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after sequential recovery")
	}
}

// TestRecoverServerWithBlackholedHelper runs the engine against a cluster
// where one survivor swallows traffic: hedged chunk fetches must promote
// spare helpers and the pass still completes byte-identical.
func TestRecoverServerWithBlackholedHelper(t *testing.T) {
	code, err := carousel.New(14, 10, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 8
	stripes := 6
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(53)).Read(data)

	_, addrs, injectors := startFaultServers(t, code, code.N())
	store, err := NewStore(code, addrs, blockSize,
		withPool(t, fastOpts()), WithHedgeDelay(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	const failed, dark = 2, 7
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)
	injectors[dark].SetDefault(faultnet.Policy{Blackhole: true})

	rep, err := store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: size}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired != stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
	}
	if n := rep.HelperChunks[addrs[dark]]; n != 0 {
		t.Fatalf("blackholed helper served %d chunks, want 0", n)
	}
	injectors[dark].SetDefault(faultnet.Policy{})
	got, _, err := store.ReadFile(ctx, "f", size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after recovery with blackholed helper")
	}
}

// TestRecoveryThrottle checks WithRecoveryBandwidth actually paces the
// pass: the charged bytes over the measured wall time must not exceed the
// configured rate by more than timer slack, and the pass must take about
// the time its bytes cost at that rate.
func TestRecoveryThrottle(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive throttle measurement")
	}
	code := mustCode(t)
	blockSize := code.BlockAlign() * 8
	stripes := 8
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(54)).Read(data)

	_, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	const failed = 5
	files := []FileSpec{{Name: "f", Size: size}}

	// Charged bytes per pass: d helper chunks plus one writeback per stripe.
	chunkSize := code.HelperChunkSize(blockSize)
	charged := float64(stripes * (code.D()*chunkSize + blockSize))
	rate := charged // 1 second of traffic at the cap
	// The bucket starts empty: every charged byte is slept off.
	ideal := charged / rate

	t0 := time.Now()
	rep, err := store.RecoverServer(ctx, failed, files, WithRecoveryBandwidth(int64(rate)))
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired != stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
	}
	if min := time.Duration(0.6 * ideal * float64(time.Second)); elapsed < min {
		t.Fatalf("throttled pass took %v, want >= %v (rate %d B/s, %d B charged)",
			elapsed, min, int64(rate), int64(charged))
	}
	if measured := charged / elapsed.Seconds(); measured > 2*rate {
		t.Fatalf("measured %0.f B/s, more than 2x the %0.f B/s cap", measured, rate)
	}
	if max := time.Duration(10 * ideal * float64(time.Second)); elapsed > max {
		t.Fatalf("throttled pass took %v, way over the %v budget — throttle oversleeping", elapsed, max)
	}
}

// TestScrubParallelRepairs drives several corrupt and missing blocks
// across different stripes through Scrub's pipelined verify and the
// engine-backed repair scheduler in one pass.
func TestScrubParallelRepairs(t *testing.T) {
	code := mustCode(t)
	blockSize := code.BlockAlign() * 8
	stripes := 6
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(55)).Read(data)

	servers, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	corrupt := []BlockRef{{Stripe: 0, Block: 2}, {Stripe: 2, Block: 7}, {Stripe: 5, Block: 11}}
	for _, ref := range corrupt {
		if err := servers[ref.Block].CorruptBlock(BlockName("f", ref.Stripe, ref.Block), 5); err != nil {
			t.Fatal(err)
		}
	}
	missing := BlockRef{Stripe: 3, Block: 9}
	{
		c, err := Dial(addrs[missing.Block])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(ctx, BlockName("f", missing.Stripe, missing.Block)); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}

	rep, err := store.Scrub(ctx, "f", size, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != len(corrupt) {
		t.Fatalf("scrub found %d corrupt blocks %v, want %v", len(rep.Corrupt), rep.Corrupt, corrupt)
	}
	for i, ref := range corrupt {
		if rep.Corrupt[i] != ref {
			t.Fatalf("corrupt[%d] = %+v, want %+v", i, rep.Corrupt[i], ref)
		}
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != missing {
		t.Fatalf("missing = %v, want [%+v]", rep.Missing, missing)
	}
	if want := len(corrupt) + 1; len(rep.Repaired) != want {
		t.Fatalf("repaired %d blocks %v, want %d", len(rep.Repaired), rep.Repaired, want)
	}
	if rep.TrafficBytes == 0 {
		t.Fatal("repairs reported no traffic")
	}

	// A second scrub must find nothing wrong, and the file reads exact.
	clean, err := store.Scrub(ctx, "f", size, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Corrupt)+len(clean.Missing)+len(clean.Repaired) != 0 {
		t.Fatalf("second scrub still dirty: %+v", *clean)
	}
	got, _, err := store.ReadFile(ctx, "f", size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after scrub repairs")
	}
}

// TestRecoverServerPlansAroundADeadHelper: with a second server down, the
// pass stops paying for it after the first wave. A wave is the stripes of
// the batches in flight when it is discovered: each exchange to it waits
// out one retry policy and strikes it for every stripe it carried, each of
// which promotes a spare; every later batch ranks it behind the reachable
// survivors. So the dead helper is asked in at most batchesInFlight
// exchanges, spare promotions move by at most batchesInFlight·(n−1) over
// 32 stripes, the dead helper serves nothing, and every block is still
// rebuilt from exactly d chunks — d*blockSize/(d-k+1) bytes.
func TestRecoverServerPlansAroundADeadHelper(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 8
	const stripes, failed, gone = 32, 3, 7
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(57)).Read(data)

	servers, addrs := startServers(t, code, code.N())
	// The baseline is taken before the store exists and checked after it
	// and the newcomer close (the newcomer's pool parks its helper
	// connections until then, and its accept loop goes with it), so a
	// goroutine the write or the recovery leaves behind shows.
	base := runtime.NumGoroutine()
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)
	servers[gone].Close()

	promoted0, refused0 := mSparePromotions.Value(), failedChunkExchanges()
	rep, err := store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: size}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired != stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
	}
	wave := batchesInFlight * (code.N() - 1)
	if got := mSparePromotions.Value() - promoted0; got < 1 || got > int64(wave) {
		t.Errorf("store_spare_promotions_total moved by %d over %d stripes, want 1..%d: only the first wave meets the dead helper",
			got, stripes, wave)
	}
	if got := failedChunkExchanges() - refused0; got < 1 || got > batchesInFlight {
		t.Errorf("the dead helper was asked in %d exchanges over %d stripes, want 1..%d: one per batch in flight when it is found",
			got, stripes, batchesInFlight)
	}
	if n := rep.HelperChunks[addrs[gone]]; n != 0 {
		t.Errorf("the closed helper served %d chunks", n)
	}
	if want := int64(stripes * code.D() * blockSize / (code.D() - code.K() + 1)); rep.TrafficBytes != want {
		t.Errorf("repair traffic %d bytes, want stripes*d*blockSize/(d-k+1) = %d", rep.TrafficBytes, want)
	}
	got, _, err := store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: err %v, identical %v", err, bytes.Equal(got, data))
	}
	store.Close()
	store.Pool().Close()
	servers[failed].Close()
	waitGoroutines(t, base-1)
}

// failedChunkExchanges sums the client-side chunk exchanges that failed as
// a whole — a per-name verdict is not one of them.
func failedChunkExchanges() int64 {
	rpcCounter(opChunk, nil) // intern the table
	var n int64
	for _, c := range rpcCounters[opChunk][1:] {
		n += c.Value()
	}
	return n
}

// servedExchanges sums the op's exchanges the servers answered, whatever
// their status.
func servedExchanges(op byte) int64 {
	var n int64
	for st := range statusNames {
		n += srvRPCCounter(op, byte(st)).Value()
	}
	return n
}

// TestRecoverServerBatchesHelperExchanges counts the round trips a node
// rebuild costs at the servers: every batch asks each survivor once, so a
// 22-stripe pass over the (12,6,10,10) ring of 11 survivors makes
// 2·(n−1) = 22 chunk exchanges — one per rebuilt block, not d — and still
// moves exactly d chunks per block.
func TestRecoverServerBatchesHelperExchanges(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 8
	const stripes, failed = 22, 5
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(58)).Read(data)

	_, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)

	exchanges0 := servedExchanges(opChunk)
	rep, err := store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: size}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := servedExchanges(opChunk)-exchanges0, int64(2*(code.N()-1)); got != want {
		t.Errorf("the servers answered %d chunk exchanges for %d stripes, want 2·(n−1) = %d", got, stripes, want)
	}
	if rep.BlocksRepaired != stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
	}
	if want := int64(stripes * code.D() * code.HelperChunkSize(blockSize)); rep.TrafficBytes != want {
		t.Errorf("traffic %d bytes, want stripes·d·chunk = %d", rep.TrafficBytes, want)
	}
	for addr, n := range rep.HelperChunks {
		if n != 2*int64(code.D()) {
			t.Errorf("helper %s served %d chunks, want d per lap = %d", addr, n, 2*code.D())
		}
	}
	got, _, err := store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: err %v, identical %v", err, bytes.Equal(got, data))
	}
}

// TestRecoverBatchesAreBoundedByBytes: a batch is a lap only while the
// lap's chunks fit in batchBytes. At (4,2,3,4) with 2 MiB blocks a stripe
// takes d·chunk = 3 MiB of slots, so a batch is 2 stripes, not the lap's
// 3: a 3-stripe pass makes two batches of n−1 exchanges (one would do at
// small blocks), no exchange carries more than 2 chunks, and the traffic,
// the helper spread and the bytes read back are what a lap gives.
func TestRecoverBatchesAreBoundedByBytes(t *testing.T) {
	code, err := carousel.New(4, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := 2 << 20
	blockSize -= blockSize % code.BlockAlign()
	n, d, chunk := code.N(), code.D(), code.HelperChunkSize(blockSize)
	perBatch := batchBytes / (d * chunk)
	if perBatch < 1 || perBatch >= n-1 {
		t.Fatalf("%d-byte blocks make %d-stripe batches; the fixture needs the byte bound to bind below a lap of %d", blockSize, perBatch, n-1)
	}
	const stripes, failed = 3, 1
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(61)).Read(data)

	_, addrs := startServers(t, code, n)
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)

	exchanges0 := servedExchanges(opChunk)
	rep, err := store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: size}})
	if err != nil {
		t.Fatal(err)
	}
	batches := (stripes + perBatch - 1) / perBatch
	if got, want := servedExchanges(opChunk)-exchanges0, int64(batches*(n-1)); got != want {
		t.Errorf("the servers answered %d chunk exchanges, want %d batches of ≤ %d stripes × n−1 = %d", got, batches, perBatch, want)
	}
	if rep.BlocksRepaired != stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
	}
	if want := int64(stripes * d * chunk); rep.TrafficBytes != want {
		t.Errorf("traffic %d bytes, want stripes·d·chunk = %d", rep.TrafficBytes, want)
	}
	for addr, c := range rep.HelperChunks {
		if c != stripes {
			t.Errorf("helper %s served %d chunks, want one per stripe = %d", addr, c, stripes)
		}
	}
	got, _, err := store.ReadFile(ctx, "f", size)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: err %v, identical %v", err, bytes.Equal(got, data))
	}
}

// TestRepairWidth: batching does not narrow a pass. Single-stripe batches
// — a scrub's scattered blocks, one per failed index, or blocks too large
// for two stripes to share a batch — run stripesInFlight at once, as
// repairs one stripe at a time did; full laps run batchesInFlight at once.
func TestRepairWidth(t *testing.T) {
	const n = 12
	lap := n - 1
	scattered := []repairJob{
		{file: "f", ref: BlockRef{Stripe: 0, Block: 2}},
		{file: "f", ref: BlockRef{Stripe: 2, Block: 7}},
		{file: "f", ref: BlockRef{Stripe: 3, Block: 9}},
		{file: "f", ref: BlockRef{Stripe: 5, Block: 11}},
		{file: "f", ref: BlockRef{Stripe: 6, Block: 4}},
	}
	node := make([]repairJob, 32)
	for st := range node {
		node[st] = repairJob{file: "f", ref: BlockRef{Stripe: st, Block: 5}}
	}
	for _, tc := range []struct {
		name string
		jobs []repairJob
		size int
		want int
	}{
		{"scattered scrub", scattered, lap, stripesInFlight},
		{"node of full laps", node, lap, batchesInFlight},
		{"node of large blocks", node, 1, stripesInFlight},
	} {
		batches := repairBatches(tc.jobs, tc.size)
		if got := batchWidth(len(tc.jobs), len(batches)); got != tc.want {
			t.Errorf("%s: %d jobs in %d batches run %d at once, want %d", tc.name, len(tc.jobs), len(batches), got, tc.want)
		}
	}
}

// TestRecoverBatchStrikesOnlyTheBadBlock: a verdict is per name, not per
// exchange. In one batch, one helper has lost one of its blocks and holds
// another corrupted; its exchange still delivers the rest of its chunks,
// and only the two stripes whose names drew a verdict promote a spare. The
// missing block draws its verdict in the exchange; the corrupted one's
// chunk lands unverified, and its stripe's rebuilt block misses the
// stripe record, so that stripe alone asks its d helpers to verify, which
// counts the rot at its server and strikes the helper there. Neither bad
// name's chunk is counted as a winning one.
func TestRecoverBatchStrikesOnlyTheBadBlock(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 8
	stripes := code.N() - 1 // one batch
	const failed, bad = 3, 7
	// Helper 7 sits at position 6 of failed 3's survivor ring, so stripe 7
	// alone leaves it out of its first d: stripes 0 and 1 both ask it.
	const missing, corrupt = 0, 1
	size := stripes * code.K() * blockSize
	data := make([]byte, size)
	rand.New(rand.NewSource(59)).Read(data)

	servers, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	home, err := Dial(addrs[failed])
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	want := make([][]byte, stripes)
	for st := range want {
		if want[st], err = home.Get(ctx, BlockName("f", st, failed)); err != nil {
			t.Fatal(err)
		}
	}
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)
	deleteBlock(t, addrs[bad], BlockName("f", missing, bad))
	if err := servers[bad].CorruptBlock(BlockName("f", corrupt, bad), 5); err != nil {
		t.Fatal(err)
	}

	promoted0, verifies0, corrupt0 := mSparePromotions.Value(), servedExchanges(opVerify), servers[bad].corruptServes.Load()
	rep, err := store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: size}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired != stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
	}
	for st := range want {
		got, err := home.Get(ctx, BlockName("f", st, failed))
		if err != nil || !bytes.Equal(got, want[st]) {
			t.Fatalf("stripe %d: rebuilt block differs from the one first encoded (err %v)", st, err)
		}
	}
	if got := mSparePromotions.Value() - promoted0; got != 2 {
		t.Errorf("store_spare_promotions_total moved by %d, want 2: one per name that drew a verdict", got)
	}
	if got := servedExchanges(opVerify) - verifies0; got != int64(code.D()) {
		t.Errorf("%d verify exchanges, want the corrupted stripe's d = %d", got, code.D())
	}
	if got := servers[bad].corruptServes.Load() - corrupt0; got != 1 {
		t.Errorf("the bad helper counted %d corrupt serves, want 1", got)
	}
	if got, share := rep.HelperChunks[addrs[bad]], int64(code.D()); got != share-2 {
		t.Errorf("the helper with two bad blocks served %d chunks, want its batch share %d less 2", got, share)
	}
	if want := int64(stripes * code.D() * code.HelperChunkSize(blockSize)); rep.TrafficBytes != want {
		t.Errorf("traffic %d bytes, want stripes·d·chunk = %d and nothing for the failed names", rep.TrafficBytes, want)
	}
}

// TestScrubIsOneVerifyPerServerPerBatch is the counted claim behind Scrub
// riding batches: a 32-stripe file at (12,6,10,10) is one batch, so its
// scrub is one verify exchange per server — 12, against one per block,
// 384, before — and no verify answer carries a payload.
func TestScrubIsOneVerifyPerServerPerBatch(t *testing.T) {
	const stripes = 32
	pc := newPlannedCluster(t, 12, 6, 10, 10, stripes)
	n := pc.code.N()
	if per := pc.store.scrubBatchSize("f", stripes); per < stripes {
		t.Fatalf("a scrub batch holds %d stripes, want the file's %d", per, stripes)
	}
	var tx0 int64
	for _, srv := range pc.servers {
		tx0 += srv.bytesTx.Load()
	}
	verifies0 := servedExchanges(opVerify)
	rep, err := pc.store.Scrub(context.Background(), "f", len(pc.data), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksChecked != stripes*n || len(rep.Corrupt)+len(rep.Missing)+len(rep.Unreachable)+len(rep.Torn) != 0 {
		t.Fatalf("scrub of a whole file: %+v", *rep)
	}
	if got := servedExchanges(opVerify) - verifies0; got != int64(n) {
		t.Errorf("%d verify exchanges, want one per server: %d", got, n)
	}
	waitIdle(pc.servers)
	var tx int64
	for _, srv := range pc.servers {
		tx += srv.bytesTx.Load()
	}
	if tx != tx0 {
		t.Errorf("the verify answers carried %d payload bytes, want none", tx-tx0)
	}
}
