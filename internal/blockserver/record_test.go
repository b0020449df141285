package blockserver

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/frame"
	"carousel/internal/obs"
)

// recordCluster is a (12,6,10,10) cluster of one file, a lap of stripes
// written by WriteFile — every block with its stripe record — and each
// server's spans in a tracer of its own.
type recordCluster struct {
	code      *carousel.Code
	servers   []*Server
	addrs     []string
	tracers   []*obs.Tracer
	store     *Store
	blockSize int
	stripes   int
	data      []byte
}

func newRecordCluster(t *testing.T, seed int64) *recordCluster {
	t.Helper()
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordCluster{code: code, blockSize: code.BlockAlign() * 16, stripes: code.N() - 1}
	rc.servers, rc.addrs = startServers(t, code, code.N())
	for _, srv := range rc.servers {
		tr := obs.NewTracer(4096)
		srv.SetTracer(tr)
		rc.tracers = append(rc.tracers, tr)
	}
	rc.data = make([]byte, rc.stripes*code.K()*rc.blockSize)
	rand.New(rand.NewSource(seed)).Read(rc.data)
	if rc.store, err = NewStore(code, rc.addrs, rc.blockSize); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.store.Close)
	rc.write(t)
	return rc
}

// write (re)writes the file, every block with its stripe record.
func (rc *recordCluster) write(t *testing.T) {
	t.Helper()
	if _, err := rc.store.WriteFile(context.Background(), "f", rc.data); err != nil {
		t.Fatal(err)
	}
}

// encode returns stripe st's n blocks as the code encodes data's.
func (rc *recordCluster) encode(t *testing.T, data []byte, st int) [][]byte {
	t.Helper()
	k, bs := rc.code.K(), rc.blockSize
	shards := make([][]byte, k)
	for j := range shards {
		shards[j] = data[(st*k+j)*bs : (st*k+j+1)*bs]
	}
	blocks, err := rc.code.Encode(shards)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// stored returns a copy of the block the server holds, and its record.
func (rc *recordCluster) stored(t *testing.T, st, i int) ([]byte, []uint32) {
	t.Helper()
	srv := rc.servers[i]
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	b, ok := srv.blocks[BlockName("f", st, i)]
	if !ok {
		t.Fatalf("server %d holds no block of stripe %d", i, st)
	}
	return bytes.Clone(b.data), append([]uint32(nil), b.rec...)
}

// recover deletes the failed server's blocks and rebuilds them in one
// traced RecoverServer pass. It returns the report and the bytes of the
// servers' verify spans in the pass's trace: every stored byte a server
// checksummed to serve it.
func (rc *recordCluster) recover(t *testing.T, failed int) (*RecoveryReport, int) {
	t.Helper()
	deleteServerBlocks(t, rc.addrs[failed], "f", rc.stripes, failed)
	ctx, sp := obs.StartSpan(context.Background(), "test.recover")
	rep, err := rc.store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: len(rc.data)}})
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired != rc.stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, rc.stripes)
	}
	waitIdle(rc.servers)
	verified, chunks := 0, 0
	for _, tr := range rc.tracers {
		for _, s := range tr.Spans(sp.TraceID()) {
			switch s.Name {
			case "verify":
				verified += attrInt(s, "bytes")
			case "server.chunk":
				chunks++
			}
		}
	}
	if chunks == 0 {
		t.Fatal("the pass's trace holds no server.chunk span")
	}
	return rep, verified
}

// identical fails unless every rebuilt block of the failed server but
// stripe skip's is the one the code encodes.
func (rc *recordCluster) identical(t *testing.T, failed, skip int) {
	t.Helper()
	for st := range rc.stripes {
		if got, _ := rc.stored(t, st, failed); st != skip && !bytes.Equal(got, rc.encode(t, rc.data, st)[failed]) {
			t.Errorf("stripe %d: the rebuilt block differs from the one the code encodes", st)
		}
	}
}

// TestRecoverHelpersVerifyNoBlock is the counted claim behind the repairing
// client verifying: a traced RecoverServer over a lap of stripes at (12,6,10,10),
// every block written with its stripe record, sums to 0 bytes of server
// verify spans (d·rebuilt bytes before). The writeback carries the record,
// so a second pass whose helpers include the rebuilt blocks costs none
// either.
func TestRecoverHelpersVerifyNoBlock(t *testing.T) {
	rc := newRecordCluster(t, 61)
	for _, failed := range []int{4, 9} {
		if _, verified := rc.recover(t, failed); verified != 0 {
			t.Errorf("rebuilding server %d: the helpers checksummed %d stored bytes, want 0", failed, verified)
		}
		rc.identical(t, failed, -1)
		for st := range rc.stripes {
			_, rec := rc.stored(t, st, failed)
			if _, want := rc.stored(t, st, 0); !slices.Equal(rec, want) {
				t.Errorf("server %d, stripe %d: the rebuilt block's record %x, want the stripe's %x", failed, st, rec, want)
			}
		}
	}
}

// TestRecoverWithoutRecordsVerifiesHelpers: a file whose blocks were put
// one by one with Client.Put carries no records, so it rebuilds as it
// always did — every helper verifies its block before its chunk, d whole
// blocks per rebuilt block — byte-identical, and the rebuilt blocks carry
// no record either.
func TestRecoverWithoutRecordsVerifiesHelpers(t *testing.T) {
	rc := newRecordCluster(t, 62)
	ctx := context.Background()
	for i, addr := range rc.addrs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for st := range rc.stripes {
			if err := c.Put(ctx, BlockName("f", st, i), rc.encode(t, rc.data, st)[i]); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	const failed = 2
	_, verified := rc.recover(t, failed)
	if want := rc.stripes * rc.code.D() * rc.blockSize; verified != want {
		t.Errorf("the helpers checksummed %d stored bytes, want d·rebuilt = %d", verified, want)
	}
	rc.identical(t, failed, -1)
	for st := range rc.stripes {
		if _, rec := rc.stored(t, st, failed); len(rec) != 0 {
			t.Errorf("stripe %d: the rebuilt block has a %d-CRC record, want none", st, len(rec))
		}
	}
}

// TestRecoverRotFallsBackToHelperVerify flips one byte of one helper's
// block, in its first, middle and last granule in turn. The helper serves
// its chunk unverified, the rebuilt block misses its record, and the
// stripe falls back: each of its d helpers verifies (d whole blocks,
// once), the rotten one is struck and counted as exactly one corrupt serve
// at its server, and one spare's exchange finishes the stripe. The rebuild
// is byte-identical, the batch's other stripes make no extra exchange, and
// the report counts only winning chunks.
func TestRecoverRotFallsBackToHelperVerify(t *testing.T) {
	rc := newRecordCluster(t, 63)
	n, d := rc.code.N(), rc.code.D()
	const failed, st = 6, 4
	rotten := rotatedSurvivors(n, failed, st)[0] // among stripe 4's first d
	grain := rc.blockSize / rc.code.UnitsPerBlock()
	units := rc.code.UnitsPerBlock()
	for _, g := range []int{0, units / 2, units - 1} {
		rc.write(t)
		if err := rc.servers[rotten].CorruptBlock(BlockName("f", st, rotten), g*grain+grain/2); err != nil {
			t.Fatal(err)
		}
		corrupt0 := make([]int64, n)
		for i, srv := range rc.servers {
			corrupt0[i] = srv.corruptServes.Load()
		}
		chunks0, verifies0, promoted0 := servedExchanges(opChunk), servedExchanges(opVerify), mSparePromotions.Value()
		rep, verified := rc.recover(t, failed)
		rc.identical(t, failed, -1)
		for i, srv := range rc.servers {
			want := int64(0)
			if i == rotten {
				want = 1
			}
			if got := srv.corruptServes.Load() - corrupt0[i]; got != want {
				t.Errorf("granule %d: server %d counted %d corrupt serves, want %d", g, i, got, want)
			}
		}
		if got := servedExchanges(opChunk) - chunks0; got != int64(n-1)+1 {
			t.Errorf("granule %d: %d chunk exchanges, want a lap's n−1 and one spare's = %d", g, got, n)
		}
		if got := servedExchanges(opVerify) - verifies0; got != int64(d) {
			t.Errorf("granule %d: %d verify exchanges, want the stripe's d = %d", g, got, d)
		}
		if verified != d*rc.blockSize {
			t.Errorf("granule %d: the servers checksummed %d stored bytes, want the recheck's d blocks = %d", g, verified, d*rc.blockSize)
		}
		if got := mSparePromotions.Value() - promoted0; got != 1 {
			t.Errorf("granule %d: %d spares promoted, want 1", g, got)
		}
		if want := int64(rc.stripes * d * rc.code.HelperChunkSize(rc.blockSize)); rep.TrafficBytes != want {
			t.Errorf("granule %d: traffic %d bytes, want the winning chunks' %d", g, rep.TrafficBytes, want)
		}
		if got := rep.HelperChunks[rc.addrs[rotten]]; got != int64(d-1) {
			t.Errorf("granule %d: the rotten helper has %d winning chunks, want its lap's d less the dropped one = %d", g, got, d-1)
		}
	}
}

// TestRecoverTornRecordsFallBack: one server's block of a stripe is put
// again from another version of the stripe, with that version's record,
// as a write torn between two versions leaves it. The records disagree,
// so the stripe falls back; every helper verifies intact, so the rebuilt
// block stands — the block the helper-verified path rebuilds from the same
// blocks — with no corrupt serve counted, and the pass completes.
func TestRecoverTornRecordsFallBack(t *testing.T) {
	rc := newRecordCluster(t, 64)
	n, d := rc.code.N(), rc.code.D()
	const failed, st = 1, 7
	helpers := rotatedSurvivors(n, failed, st)[:d]
	torn := helpers[3]
	other := bytes.Clone(rc.data)
	rand.New(rand.NewSource(65)).Read(other)
	newer := rc.encode(t, other, st)
	rec := make([]uint32, n)
	for i, b := range newer {
		rec[i] = Checksum(b)
	}
	c, err := Dial(rc.addrs[torn])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	name := BlockName("f", st, torn)
	if err := c.puts(context.Background(), listOf(name), [][]byte{newer[torn]}, []uint32{rec[torn]}, [][]uint32{rec}); err != nil {
		t.Fatal(err)
	}
	// What the helper-verified path rebuilds from these helpers' blocks.
	older := rc.encode(t, rc.data, st)
	chunks := make([][]byte, d)
	for j, h := range helpers {
		block := older[h]
		if h == torn {
			block = newer[h]
		}
		if chunks[j], err = rc.code.HelperChunk(h, failed, block); err != nil {
			t.Fatal(err)
		}
	}
	want, err := rc.code.RepairBlock(failed, helpers, chunks)
	if err != nil {
		t.Fatal(err)
	}

	var corrupt0 int64
	for _, srv := range rc.servers {
		corrupt0 += srv.corruptServes.Load()
	}
	verifies0 := servedExchanges(opVerify)
	rc.recover(t, failed)
	rc.identical(t, failed, st)
	if got, _ := rc.stored(t, st, failed); !bytes.Equal(got, want) {
		t.Error("the torn stripe's rebuilt block is not the one its helpers' blocks rebuild")
	}
	if got := servedExchanges(opVerify) - verifies0; got != int64(d) {
		t.Errorf("%d verify exchanges, want the torn stripe's d = %d", got, d)
	}
	var corrupt int64
	for _, srv := range rc.servers {
		corrupt += srv.corruptServes.Load()
	}
	if corrupt != corrupt0 {
		t.Errorf("%d corrupt serves counted, want none", corrupt-corrupt0)
	}
}

// TestRepairBatchesFitAWideAnswerMeta: at (200,100,100,200) a lap's chunk
// answer — a verdict, a CRC and a record of n CRCs per stripe — would pass
// the 65,535-byte meta, (6+4n)(n−1) > 65,535, and a lap's helpers are each
// asked for up to d > 65,535/(6+4n) stripes. So a repair batch is
// 65,535/(6+4n) stripes: a pass over more than that rebuilds
// byte-identical with no exchange refused. The server still refuses a
// request naming one more block than an answer meta has room for with
// statusError and no verdicts, and answers one naming exactly that many.
func TestRepairBatchesFitAWideAnswerMeta(t *testing.T) {
	code, err := carousel.New(200, 100, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	n, d := code.N(), code.D()
	bound := math.MaxUint16 / (6 + 4*n)
	if (6+4*n)*(n-1) <= math.MaxUint16 || d <= bound {
		t.Fatalf("(6+4n)(n−1) = %d and d = %d: the code is too narrow to bind", (6+4*n)*(n-1), d)
	}
	// Four servers hold the n blocks of each stripe, block i on server i%4.
	_, real := startServers(t, code, 4)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = real[i%len(real)]
	}
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.repairBatchSize(); got != bound {
		t.Fatalf("a repair batch is %d stripes, want 65,535/(6+4n) = %d", got, bound)
	}
	stripes := bound + 10
	data := make([]byte, stripes*code.K()*blockSize)
	rand.New(rand.NewSource(66)).Read(data)
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	const failed = 0
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)
	refused0 := srvRPCCounter(opChunk, statusError).Value()
	rep, err := store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: len(data)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksRepaired != stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
	}
	if got := srvRPCCounter(opChunk, statusError).Value() - refused0; got != 0 {
		t.Errorf("the servers refused %d chunk exchanges, want none", got)
	}
	got, _, err := store.ReadFile(ctx, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: err %v, identical %v", err, bytes.Equal(got, data))
	}

	// Raw chunk requests naming one recorded block bound and bound+1 times.
	const helper = 4 // on server 0, with failed
	name := BlockName("f", 0, helper)
	for _, count := range []int{bound, bound + 1} {
		names := make([]string, count)
		for i := range names {
			names[i] = name
		}
		conn, err := net.Dial("tcp", real[0])
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(listFrame(opChunk, listMeta(count, names, helper, failed))); err != nil {
			t.Fatal(err)
		}
		h, err := frame.NewReader(conn, maxPayload).Next()
		conn.Close()
		if err != nil {
			t.Fatalf("%d names: %v", count, err)
		}
		if count > bound {
			if h.Kind != statusError || len(h.Meta) != 0 {
				t.Errorf("%d names: status %d with a %d-byte meta, want statusError and no verdicts", count, h.Kind, len(h.Meta))
			}
			continue
		}
		if h.Kind != statusOK || len(h.Meta) != count*(6+4*n) {
			t.Errorf("%d names: status %d with a %d-byte meta, want statusOK and %d bytes: a verdict, a CRC and a record each", count, h.Kind, len(h.Meta), count*(6+4*n))
		}
	}
}

// TestRecoverAt256BlocksGoesWithoutRecords: a put meta's record width is
// one byte, so at n = 256 WriteFile puts its blocks with no stripe record,
// and they rebuild byte-identical through helper verification.
func TestRecoverAt256BlocksGoesWithoutRecords(t *testing.T) {
	code, err := carousel.New(256, 128, 128, 256)
	if err != nil {
		t.Fatal(err)
	}
	servers, real := startServers(t, code, 4)
	addrs := make([]string, code.N())
	for i := range addrs {
		addrs[i] = real[i%len(real)]
	}
	blockSize := code.BlockAlign() * 8
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, code.K()*blockSize)
	rand.New(rand.NewSource(67)).Read(data)
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	const failed = 5
	servers[1].mu.RLock()
	rec := servers[1].blocks[BlockName("f", 0, 1)].rec
	servers[1].mu.RUnlock()
	if len(rec) != 0 {
		t.Fatalf("a block was stored with a %d-CRC record, want none", len(rec))
	}
	deleteServerBlocks(t, addrs[failed], "f", 1, failed)
	if _, err := store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: len(data)}}); err != nil {
		t.Fatal(err)
	}
	got, _, err := store.ReadFile(ctx, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: err %v, identical %v", err, bytes.Equal(got, data))
	}
}

// TestScrubReportsTornStripes: one server's block of stripe 7 is put again
// from another version of the stripe, with that version's record, as a
// write torn between two versions leaves it, and another block of stripe 7
// is deleted; elsewhere one block rots and one goes missing. Scrub reports
// exactly stripe 7 torn, repairs the two other broken blocks byte-identical
// and leaves stripe 7's missing block alone: rebuilt from helpers of two
// versions, it would match neither.
func TestScrubReportsTornStripes(t *testing.T) {
	rc := newRecordCluster(t, 83)
	n := rc.code.N()
	const st, torn, gone = 7, 3, 9
	other := bytes.Clone(rc.data)
	rand.New(rand.NewSource(84)).Read(other)
	newer := rc.encode(t, other, st)
	rec := make([]uint32, n)
	for i, b := range newer {
		rec[i] = Checksum(b)
	}
	ctx := context.Background()
	put := func(i int, f func(c *Client) error) {
		t.Helper()
		c, err := Dial(rc.addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := f(c); err != nil {
			t.Fatal(err)
		}
	}
	put(torn, func(c *Client) error {
		return c.puts(ctx, listOf(BlockName("f", st, torn)), [][]byte{newer[torn]}, []uint32{rec[torn]}, [][]uint32{rec})
	})
	put(gone, func(c *Client) error { return c.Delete(ctx, BlockName("f", st, gone)) })
	rotten, missing := BlockRef{Stripe: 2, Block: 4}, BlockRef{Stripe: 5, Block: 0}
	if err := rc.servers[rotten.Block].CorruptBlock(BlockName("f", rotten.Stripe, rotten.Block), 11); err != nil {
		t.Fatal(err)
	}
	put(missing.Block, func(c *Client) error { return c.Delete(ctx, BlockName("f", missing.Stripe, missing.Block)) })

	rep, err := rc.store.Scrub(ctx, "f", len(rc.data), true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Torn, []int{st}) {
		t.Errorf("torn stripes %v, want [%d]", rep.Torn, st)
	}
	if want := []BlockRef{missing, {Stripe: st, Block: gone}}; !slices.Equal(rep.Missing, want) {
		t.Errorf("missing %v, want %v", rep.Missing, want)
	}
	if want := []BlockRef{rotten, missing}; !slices.Equal(rep.Repaired, want) {
		t.Errorf("repaired %v, want %v", rep.Repaired, want)
	}
	for _, ref := range []BlockRef{rotten, missing} {
		if got, _ := rc.stored(t, ref.Stripe, ref.Block); !bytes.Equal(got, rc.encode(t, rc.data, ref.Stripe)[ref.Block]) {
			t.Errorf("stripe %d block %d: the repaired block is not the one the code encodes", ref.Stripe, ref.Block)
		}
	}
	srv := rc.servers[gone]
	srv.mu.RLock()
	_, held := srv.blocks[BlockName("f", st, gone)]
	srv.mu.RUnlock()
	if held {
		t.Error("the torn stripe's missing block was rebuilt")
	}
}
