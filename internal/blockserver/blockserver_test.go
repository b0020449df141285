package blockserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"carousel/internal/carousel"
)

func mustCode(t *testing.T) *carousel.Code {
	t.Helper()
	c, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startServers spins n servers on ephemeral localhost ports.
func startServers(t *testing.T, code *carousel.Code, n int) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := NewServer(code)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		addrs[i] = addr
		t.Cleanup(func() { srv.Close() })
	}
	return servers, addrs
}

// TestPutGetRangeDeleteVerify drives the one-name calls, and a range of
// length 0 — to each block's end — over blocks of different sizes: the
// first OK block's remainder is the answer's length, and a block whose
// remainder differs, shorter or longer, draws statusError, its
// destination untouched.
func TestPutGetRangeDeleteVerify(t *testing.T) {
	ctx := context.Background()
	_, addrs := startServers(t, mustCode(t), 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := []byte("hello block world")
	if err := c.Put(ctx, "b1", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q", got)
	}
	if err := c.Verify(ctx, "b1"); err != nil {
		t.Fatalf("Verify intact block: %v", err)
	}
	part := make([]byte, 5)
	if err := c.GetRangeInto(ctx, "b1", 6, part); err != nil {
		t.Fatal(err)
	}
	if string(part) != "block" {
		t.Fatalf("GetRangeInto = %q", part)
	}
	if err := c.GetRangeInto(ctx, "b1", 10, make([]byte, 100)); !errors.Is(err, ErrRemote) {
		t.Fatalf("out-of-range read: %v, want ErrRemote", err)
	}
	if _, err := c.Get(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}

	// b2 is shorter than b1, b3 as long and b4 longer.
	for name, block := range map[string]string{"b2": string(data[:9]), "b3": "HELLO BLOCK WORLD", "b4": "hello block world, longer"} {
		if err := c.Put(ctx, name, []byte(block)); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"missing", "b1", "b2", "b3", "b4"}
	dst := make([][]byte, len(names))
	for i := range dst {
		dst[i] = make([]byte, 11)
	}
	verdicts := make([]error, len(names))
	err = c.do(ctx, request{op: opRange, args: [2]uint32{6, 0}, batch: &nameBatch{names: listOf(names...), bufs: dst, verdicts: verdicts}})
	if err != nil {
		t.Fatalf("length-0 range: %v", err)
	}
	if !errors.Is(verdicts[0], ErrNotFound) || verdicts[1] != nil || !errors.Is(verdicts[2], ErrRemote) || verdicts[3] != nil || !errors.Is(verdicts[4], ErrRemote) {
		t.Fatalf("length-0 range verdicts %v, want not found, OK, remote, OK, remote", verdicts)
	}
	if string(dst[1]) != "block world" || string(dst[3]) != "BLOCK WORLD" || dst[2][0] != 0 || dst[4][0] != 0 {
		t.Fatalf("length-0 range landed %q", dst)
	}
	exchanges0 := servedExchanges(opRange)
	if err := c.ranges(ctx, listOf(names...), 6, make([][]byte, len(names)), verdicts); err != nil || verdicts[0] != nil {
		t.Fatalf("ranges with zero-length destinations: %v, verdicts %v, want nil", err, verdicts)
	}
	if n := servedExchanges(opRange) - exchanges0; n != 0 {
		t.Fatalf("ranges with zero-length destinations made %d range exchanges, want 0", n)
	}
	if err := c.Delete(ctx, "b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "b1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	if err := c.Verify(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Verify missing: %v", err)
	}
}

// TestNewServerRefusesNilCode: a server reads its code on every put, so
// NewServer refuses a nil code at construction, before anything listens,
// with a panic that names the argument.
func TestNewServerRefusesNilCode(t *testing.T) {
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "code must not be nil") {
			t.Fatalf("NewServer(nil) recovered %v, want a panic naming the nil code", r)
		}
	}()
	NewServer(nil)
}

// TestObsSummaryTxIsPerServer: the served-byte total a node heartbeats is
// its own. Two servers share this process; reading from one must leave the
// idle one's ObsSummary tx at zero, or the master's per-member tx rate is
// the process sum.
func TestObsSummaryTxIsPerServer(t *testing.T) {
	ctx := context.Background()
	servers, addrs := startServers(t, mustCode(t), 2)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("x"), 4096)
	if err := c.Put(ctx, "b", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	Recycle(got)
	if _, _, tx := servers[0].ObsSummary(); tx != int64(len(payload)) {
		t.Errorf("serving server's tx = %d, want the %d bytes it served", tx, len(payload))
	}
	if _, _, tx := servers[1].ObsSummary(); tx != 0 {
		t.Errorf("idle server's tx = %d, want 0", tx)
	}
}

func TestChunkComputedServerSide(t *testing.T) {
	ctx := context.Background()
	code := mustCode(t)
	_, addrs := startServers(t, code, 1)
	blockSize := code.BlockAlign() * 64
	rng := rand.New(rand.NewSource(1))
	shards := make([][]byte, 6)
	for i := range shards {
		shards[i] = make([]byte, blockSize)
		rng.Read(shards[i])
	}
	blocks, err := code.Encode(shards)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(ctx, "blk", blocks[3]); err != nil {
		t.Fatal(err)
	}
	chunk, err := c.Chunk(ctx, "blk", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := code.HelperChunk(3, 0, blocks[3])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chunk, want) {
		t.Fatal("server-side chunk differs from local computation")
	}
	if len(chunk) != blockSize/code.Alpha() {
		t.Fatalf("chunk size %d, want %d", len(chunk), blockSize/code.Alpha())
	}
}

func TestStoreEndToEnd(t *testing.T) {
	ctx := context.Background()
	code := mustCode(t)
	servers, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 32
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	// Two full stripes plus a partial third.
	size := 2*6*blockSize + blockSize + 17
	data := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(data)
	stripes, err := store.WriteFile(ctx, "f", data)
	if err != nil {
		t.Fatal(err)
	}
	if stripes != 3 {
		t.Fatalf("stripes = %d, want 3", stripes)
	}
	got, stats, err := store.ReadFile(ctx, "f", size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("healthy TCP read mismatch")
	}
	if stats.Path() != "parallel" {
		t.Fatalf("healthy read path = %q, want parallel", stats.Path())
	}

	// Kill a server: degraded read still succeeds, via the fallback path.
	servers[4].Close()
	got, stats, err = store.ReadFile(ctx, "f", size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded TCP read mismatch")
	}
	if stats.StripesFallback != 3 {
		t.Fatalf("degraded read served %d stripes via fallback, want 3", stats.StripesFallback)
	}
}

func TestStoreRepairOverTCP(t *testing.T) {
	ctx := context.Background()
	code := mustCode(t)
	servers, addrs := startServers(t, code, 12)
	blockSize := code.BlockAlign() * 32
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 6*blockSize)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	// Wipe block 2 on its server, then repair it through helper chunks.
	c, err := Dial(addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, BlockName("f", 0, 2)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	traffic0, promoted0, chunks0 := mRepairTraffic.Value(), mSparePromotions.Value(), srvRPCCounter(opChunk, statusOK).Value()
	tx0 := make([]int64, len(servers))
	for i, srv := range servers {
		tx0[i] = srv.bytesTx.Load()
	}
	traffic, err := store.Repair(ctx, "f", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunkSize := blockSize / code.Alpha()
	if want := code.D() * chunkSize; traffic != want {
		t.Fatalf("repair traffic = %d, want the optimal %d", traffic, want)
	}
	if got := mRepairTraffic.Value() - traffic0; got != int64(traffic) {
		t.Fatalf("store_repair_traffic_bytes_total moved by %d, want the repair's %d", got, traffic)
	}
	// A healthy repair is one round of exactly d Chunk RPCs, to the first d
	// survivors in ring order, and promotes no spare.
	if got := mSparePromotions.Value() - promoted0; got != 0 {
		t.Errorf("store_spare_promotions_total moved by %d, want 0", got)
	}
	if got := srvRPCCounter(opChunk, statusOK).Value() - chunks0; got != int64(code.D()) {
		t.Errorf("servers answered %d Chunk RPCs, want d = %d", got, code.D())
	}
	for pos, i := range rotatedSurvivors(code.N(), 2, 0) {
		// A helper's first traced exchange adds its one-byte capability answer.
		sent := servers[i].bytesTx.Load() - tx0[i]
		if asked := pos < code.D(); asked != (sent >= int64(chunkSize)) || sent > int64(chunkSize)+1 {
			t.Errorf("survivor %d (ring position %d) sent %d bytes, want a %d-byte chunk only if among the first d", i, pos, sent, chunkSize)
		}
	}
	got, _, err := store.ReadFile(ctx, "f", len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after TCP repair mismatch")
	}
}

func TestStoreValidation(t *testing.T) {
	code := mustCode(t)
	if _, err := NewStore(code, make([]string, 3), 100); err == nil {
		t.Error("wrong server count did not error")
	}
	addrs := make([]string, 12)
	if _, err := NewStore(code, addrs, code.BlockAlign()+1); err == nil {
		t.Error("misaligned block size did not error")
	}
	store, err := NewStore(code, addrs, code.BlockAlign())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", nil); err == nil {
		t.Error("empty file did not error")
	}
	// A size names a file WriteFile created, so it is positive; the ones
	// below arrive from outside (journal, CLI) and must come back as errors
	// — the last two used to reach make([]byte, negative) and panic.
	for _, size := range []int{0, -1, -2 * code.K() * code.BlockAlign(), -1 << 40} {
		if _, stats, err := store.ReadFile(ctx, "f", size); err == nil || stats != nil {
			t.Errorf("ReadFile(size %d) = stats %v, err %v; want an error and no stats", size, stats, err)
		}
		for _, repair := range []bool{false, true} {
			if _, err := store.Scrub(ctx, "f", size, repair); err == nil {
				t.Errorf("Scrub(size %d, repair %v) did not error", size, repair)
			}
		}
		if _, err := store.RecoverServer(ctx, 0, []FileSpec{{Name: "f", Size: size}}); err == nil {
			t.Errorf("RecoverServer(size %d) did not error", size)
		}
	}
	// Repair's indexes arrive from outside too: out of range they are an
	// argument error, refused before any I/O — not a shortage of helpers
	// after n-1 Chunk RPCs the servers cannot answer.
	_, live := startServers(t, code, code.N())
	store, err = NewStore(code, live, code.BlockAlign())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	dials := store.Pool().DialCounts()
	for _, tc := range []struct{ st, failed int }{{0, code.N()}, {0, -1}, {-1, 0}} {
		if _, err := store.Repair(ctx, "f", tc.st, tc.failed); err == nil || errors.Is(err, ErrTooFewSurvivors) {
			t.Errorf("Repair(stripe %d, block %d) = %v, want an argument error", tc.st, tc.failed, err)
		}
	}
	if got := store.Pool().DialCounts(); !maps.Equal(got, dials) {
		t.Errorf("refused repairs dialed: %v, before %v", got, dials)
	}
}

func TestProtocolNameValidation(t *testing.T) {
	_, addrs := startServers(t, mustCode(t), 1)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), "", []byte("x")); err == nil {
		t.Error("empty name did not error")
	}
}

// TestVerifiesAnswersPerName: one verify exchange over an intact block put
// with a stripe record of the code's width, a missing block, a rotten one,
// one put with no record and one whose record is of another width answers
// a verdict per name — OK, not found, corrupt, OK, OK — and the record of
// the one intact block that has one of the code's width; it counts the one
// rotten block as one corrupt serve, and sends no payload.
func TestVerifiesAnswersPerName(t *testing.T) {
	code := mustCode(t)
	servers, addrs := startServers(t, code, 1)
	srv := servers[0]
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	block := make([]byte, code.BlockAlign()*2)
	rand.New(rand.NewSource(81)).Read(block)
	rec := make([]uint32, code.N())
	for i := range rec {
		rec[i] = uint32(1000 + i)
	}
	if err := c.puts(ctx, listOf("intact", "rotten"), [][]byte{block, block}, nil, [][]uint32{rec, rec}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "plain", block); err != nil {
		t.Fatal(err)
	}
	if err := c.puts(ctx, listOf("narrow"), [][]byte{block}, nil, [][]uint32{rec[:3]}); err != nil {
		t.Fatal(err)
	}
	if err := srv.CorruptBlock("rotten", 7); err != nil {
		t.Fatal(err)
	}
	names := []string{"intact", "missing", "rotten", "plain", "narrow"}
	recs := make([][]uint32, len(names))
	for i := range recs {
		recs[i] = []uint32{42} // a stale record, to be emptied
	}
	verdicts := make([]error, len(names))
	verifies0, corrupt0, tx0 := servedExchanges(opVerify), srv.corruptServes.Load(), srv.bytesTx.Load()
	if err := c.verifies(ctx, listOf(names...), recs, verdicts); err != nil {
		t.Fatal(err)
	}
	if verdicts[0] != nil || !errors.Is(verdicts[1], ErrNotFound) || !errors.Is(verdicts[2], ErrCorrupt) || verdicts[3] != nil || verdicts[4] != nil {
		t.Fatalf("verdicts %v, want OK, not found, corrupt, OK, OK", verdicts)
	}
	if !slices.Equal(recs[0], rec) {
		t.Errorf("the intact block's record came back %v, want %v", recs[0], rec)
	}
	for i, r := range recs[1:] {
		if len(r) != 0 {
			t.Errorf("%s: a %d-CRC record came back, want none", names[i+1], len(r))
		}
	}
	if n := servedExchanges(opVerify) - verifies0; n != 1 {
		t.Errorf("%d verify exchanges, want 1", n)
	}
	if n := srv.corruptServes.Load() - corrupt0; n != 1 {
		t.Errorf("%d corrupt serves counted, want 1", n)
	}
	if n := srv.bytesTx.Load() - tx0; n != 0 {
		t.Errorf("the verify answer carried %d payload bytes, want none", n)
	}
	// The one-name form gives the same verdicts.
	for i, name := range names {
		if err := c.Verify(ctx, name); fmt.Sprint(err) != fmt.Sprint(verdicts[i]) {
			t.Errorf("Verify(%s) = %v, want %v", name, err, verdicts[i])
		}
	}
}
