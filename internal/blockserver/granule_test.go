package blockserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"carousel/internal/carousel"
	"carousel/internal/obs"
)

// attrInt reads a numeric span attribute, as recorded (int) or as decoded
// from a collected trace's JSON (float64).
func attrInt(s obs.SpanRecord, key string) int {
	switch v := s.Attr(key).(type) {
	case int:
		return v
	case float64:
		return int(v)
	}
	return 0
}

// wholeCRC is the block's CRC32C combined from its granules': what a
// whole-block range is answered with.
func wholeCRC(b storedBlock) uint32 {
	crc, _, _ := b.rangeCRC(0, len(b.data))
	return crc
}

// TestGranuleRangeCRC: rangeCRC over the granule CRCs is Checksum of the
// range's bytes, over random grains and ranges — empty ones, one whole
// block, one granule, and ranges that start or end mid-granule — and it
// checksums stored bytes only for the granules a range covers in part, at
// most two, none for an aligned range.
func TestGranuleRangeCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 400; trial++ {
		grain, units := 1+rng.Intn(300), 1+rng.Intn(8)
		if trial%5 == 0 {
			units = 1 // the whole block is one granule
		}
		data := make([]byte, grain*units)
		rng.Read(data)
		b := storedBlock{data: data, crcs: make([]uint32, units)}
		for i := range b.crcs {
			b.crcs[i] = Checksum(data[i*grain : (i+1)*grain])
		}
		if n, intact := b.check(); n != len(data) || !intact || wholeCRC(b) != Checksum(data) {
			t.Fatalf("trial %d: check %d bytes intact %v, crc %08x, want %d, true, %08x", trial, n, intact, wholeCRC(b), len(data), Checksum(data))
		}
		g, mid := rng.Intn(units), rng.Intn(grain)
		ranges := [][2]int{
			{rng.Intn(len(data) + 1), 0},               // empty
			{0, len(data)},                             // the whole block
			{g * grain, grain},                         // one granule
			{g*grain + mid, len(data) - g*grain - mid}, // from mid-granule to the end
			{0, g*grain + 1 + mid},                     // from the start to mid-granule
			{g*grain + mid, 1 + rng.Intn(grain)},       // within one granule or two
		}
		for range 4 {
			off := rng.Intn(len(data) + 1)
			ranges = append(ranges, [2]int{off, rng.Intn(len(data) - off + 1)})
		}
		for _, r := range ranges {
			off, n := r[0], min(r[1], len(data)-r[0])
			crc, checked, ok := b.rangeCRC(off, n)
			if want := Checksum(data[off : off+n]); !ok || crc != want {
				t.Fatalf("trial %d, grain %d: rangeCRC(%d, %d) = %08x, %v, want %08x", trial, grain, off, n, crc, ok, want)
			}
			if checked%grain != 0 || checked > 2*grain || (checked == 0) != b.aligned(off, n) {
				t.Fatalf("trial %d, grain %d: rangeCRC(%d, %d) checksummed %d stored bytes (aligned %v)", trial, grain, off, n, checked, b.aligned(off, n))
			}
		}
	}
}

// TestGranuleRot flips one byte in each granule of a block in turn, first
// to last. A unit-aligned range over it — of that granule, or of the whole
// block — lands every other name byte-identical and gives the rotten one
// ErrCorrupt from its reader, with no redial; the reader's report makes the
// server count exactly one corrupt serve. A range that covers the rotten
// granule only in part is caught at the server instead, as statusCorrupt,
// with nothing to report.
func TestGranuleRot(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingListener{Listener: raw}
	srv := NewServer(code)
	addr, err := srv.StartListener(counting)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ctx := context.Background()
	c := NewClient(addr, fastOpts())
	defer c.Close()

	blockSize := code.BlockAlign() * 64
	grain := blockSize / code.UnitsPerBlock()
	names, blocks := make([]string, 4), make([][]byte, 4)
	rng := rand.New(rand.NewSource(39))
	for i := range names {
		names[i], blocks[i] = fmt.Sprintf("g%d", i), make([]byte, blockSize)
		rng.Read(blocks[i])
	}
	const rotten = 2
	for g := range code.UnitsPerBlock() {
		if err := c.puts(ctx, listOf(names...), blocks, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := srv.CorruptBlock(names[rotten], g*grain+grain/2); err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			what        string
			off, length int
			atServer    bool
		}{
			{"the granule", g * grain, grain, false},
			{"the whole block", 0, blockSize, false},
			{"the granule's first half", g * grain, grain / 2, true},
			{"from mid-granule on", g*grain + 1, blockSize - g*grain - 1, true},
		} {
			dst, verdicts := make([][]byte, len(names)), make([]error, len(names))
			for i := range dst {
				dst[i] = make([]byte, r.length)
			}
			corrupt0, reports0 := srv.corruptServes.Load(), servedExchanges(opVerify)
			if err := c.ranges(ctx, listOf(names...), r.off, dst, verdicts); err != nil {
				t.Fatalf("granule %d, %s: %v", g, r.what, err)
			}
			for i := range names {
				if i == rotten {
					if !errors.Is(verdicts[i], ErrCorrupt) {
						t.Errorf("granule %d, %s: rotten name's verdict %v, want ErrCorrupt", g, r.what, verdicts[i])
					}
				} else if verdicts[i] != nil || !bytes.Equal(dst[i], blocks[i][r.off:r.off+r.length]) {
					t.Errorf("granule %d, %s: name %d verdict %v, identical %v", g, r.what, i, verdicts[i], bytes.Equal(dst[i], blocks[i][r.off:r.off+r.length]))
				}
			}
			if n := srv.corruptServes.Load() - corrupt0; n != 1 {
				t.Errorf("granule %d, %s: the server counted %d corrupt serves, want 1", g, r.what, n)
			}
			wantReports := int64(1)
			if r.atServer {
				wantReports = 0
			}
			if n := servedExchanges(opVerify) - reports0; n != wantReports {
				t.Errorf("granule %d, %s: %d verify reports, want %d (caught at the server: %v)", g, r.what, n, wantReports, r.atServer)
			}
		}
		// The one-name form carries the reader's verdict as its error.
		one := make([]byte, grain)
		if err := c.GetRangeInto(ctx, names[rotten], g*grain, one); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "reader") {
			t.Errorf("granule %d: one-name range of the rotten granule: %v, want the reader's ErrCorrupt", g, err)
		}
	}
	if n := counting.accepts.Load(); n != 1 {
		t.Errorf("the client dialed %d times, want 1: a rotten name poisoned the connection", n)
	}
}

// TestGranuleRotStrikesOneStripe: a Store read over a block with one byte
// flipped in a granule it reads strikes only that block's stripe, is
// byte-identical, and the server counts the rot; rot in a granule the
// healthy plan does not read costs the read nothing.
func TestGranuleRotStrikesOneStripe(t *testing.T) {
	const stripes, bad = 4, 2
	pc := newPlannedCluster(t, 12, 6, 10, 10, stripes)
	grain := pc.blockSize / pc.code.UnitsPerBlock()
	read := pc.code.DataBytesPerBlock(bad, pc.blockSize)
	name := BlockName("f", 1, bad)
	ctx := context.Background()
	c, err := Dial(pc.addrs[bad])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	block, err := c.Get(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	block = bytes.Clone(block)
	for g := range pc.code.UnitsPerBlock() {
		if err := c.Put(ctx, name, block); err != nil {
			t.Fatal(err)
		}
		if err := pc.servers[bad].CorruptBlock(name, g*grain+3); err != nil {
			t.Fatal(err)
		}
		corrupt0 := pc.servers[bad].corruptServes.Load()
		stats, _ := pc.read(t)
		want := 0
		if g*grain < read {
			want = 1
		}
		if stats.StripesFallback != want || stats.CorruptSources != want {
			t.Errorf("granule %d: %d stripes re-planned, %d corrupt verdicts, want %d and %d", g, stats.StripesFallback, stats.CorruptSources, want, want)
		}
		if n := pc.servers[bad].corruptServes.Load() - corrupt0; n != int64(want) {
			t.Errorf("granule %d: the server counted %d corrupt serves, want %d", g, n, want)
		}
	}
}

// TestGranuleServerCRCBytes is the counted claim behind the reader
// verifying: a traced ReadFile at (12,6,10,10) asks only for unit-aligned
// ranges, so the bytes of the server-side verify spans in its trace — every
// stored byte a server checksums to serve it — sum to 0. A range that
// starts and ends mid-granule checksums exactly the two granules it covers
// in part, per name, and one inside a granule that granule.
func TestGranuleServerCRCBytes(t *testing.T) {
	const stripes = 8
	pc := newPlannedCluster(t, 12, 6, 10, 10, stripes)
	tracers := make([]*obs.Tracer, len(pc.servers))
	for i, srv := range pc.servers {
		tracers[i] = obs.NewTracer(4096)
		srv.SetTracer(tracers[i])
	}
	// verified sums the server-side verify spans of one trace, and counts
	// its range spans.
	verified := func(trace uint64) (bytes, spans, ranges int) {
		waitIdle(pc.servers)
		for _, tr := range tracers {
			for _, s := range tr.Spans(trace) {
				switch s.Name {
				case "verify":
					bytes += attrInt(s, "bytes")
					spans++
				case "server.range":
					ranges++
				}
			}
		}
		return bytes, spans, ranges
	}
	rctx, root := obs.StartSpan(context.Background(), "test.read")
	got, stats, err := pc.store.ReadFile(rctx, "f", len(pc.data))
	root.End()
	if err != nil || !bytes.Equal(got, pc.data) {
		t.Fatalf("read: %v, identical %v", err, bytes.Equal(got, pc.data))
	}
	if stats.StripesParallel != stripes {
		t.Fatalf("%d of %d stripes read in parallel", stats.StripesParallel, stripes)
	}
	bytes, _, ranges := verified(stats.TraceID)
	if ranges == 0 {
		t.Fatal("the read's trace holds no server.range span")
	}
	if bytes != 0 {
		t.Errorf("servers checksummed %d stored bytes for a %d-byte read, want 0", bytes, len(pc.data))
	}

	grain := pc.blockSize / pc.code.UnitsPerBlock()
	names := make([]string, stripes)
	dst, verdicts := make([][]byte, stripes), make([]error, stripes)
	for st := range names {
		names[st], dst[st] = BlockName("f", st, 0), make([]byte, 2*grain)
	}
	c, err := Dial(pc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range []struct {
		off, length, want int
	}{
		{grain / 2, 2 * grain, 2 * grain}, // mid-granule to mid-granule
		{grain + 1, grain / 2, grain},     // inside one granule
		{grain, 2 * grain, 0},             // aligned
	} {
		ctx, sp := obs.StartSpan(context.Background(), "test.ranges")
		for i := range dst {
			dst[i] = dst[i][:r.length]
		}
		err := c.ranges(ctx, listOf(names...), r.off, dst, verdicts)
		sp.End()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range verdicts {
			if v != nil {
				t.Fatalf("range [%d,+%d) of %s: %v", r.off, r.length, names[i], v)
			}
		}
		bytes, spans, _ := verified(sp.TraceID())
		if bytes != stripes*r.want || (r.want == 0) != (spans == 0) {
			t.Errorf("range [%d,+%d) of %d names: the server checksummed %d stored bytes in %d verify spans, want %d per name",
				r.off, r.length, stripes, bytes, spans, r.want)
		}
	}
}

// TestWholeBlockRangeIsCheckedAtTheReader: Get is a range of length 0, to
// the block's end. The server answers it with the CRC combined from the
// block's granule CRCs and checksums none of the block; the reader checks
// what lands. A rotten block is the reader's ErrCorrupt, and its opVerify
// report makes the server count the rot as one corrupt serve. The client
// stays in sync: its next Get, of an intact block, lands.
func TestWholeBlockRangeIsCheckedAtTheReader(t *testing.T) {
	code := mustCode(t)
	servers, addrs := startServers(t, code, 1)
	srvTr, cliTr := obs.NewTracer(256), obs.NewTracer(256)
	servers[0].SetTracer(srvTr)
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	block := make([]byte, code.BlockAlign()*4)
	rand.New(rand.NewSource(44)).Read(block)
	ctx := context.Background()
	for _, name := range []string{"good", "bad"} {
		if err := c.Put(ctx, name, block); err != nil {
			t.Fatal(err)
		}
	}
	tctx, sp := cliTr.Start(ctx, "get")
	got, err := c.Get(tctx, "good")
	sp.End()
	if err != nil || !bytes.Equal(got, block) {
		t.Fatalf("Get: err %v, identical %v", err, bytes.Equal(got, block))
	}
	Recycle(got)
	waitIdle(servers)
	var ranges int
	for _, s := range srvTr.Spans(sp.TraceID()) {
		switch s.Name {
		case "server.range":
			ranges++
		case "verify", "server.verify":
			t.Errorf("a whole-block range of an intact block drew a %s span (%d bytes)", s.Name, attrInt(s, "bytes"))
		}
	}
	if ranges != 1 {
		t.Errorf("the Get's trace holds %d server.range spans, want 1", ranges)
	}

	if err := servers[0].CorruptBlock("bad", len(block)-1); err != nil {
		t.Fatal(err)
	}
	_, _, corrupt0 := servers[0].Stats()
	if _, err := c.Get(ctx, "bad"); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "reader") {
		t.Fatalf("Get of a rotten block: %v, want the reader's ErrCorrupt", err)
	}
	if _, _, corrupt := servers[0].Stats(); corrupt != corrupt0+1 {
		t.Errorf("the server counted %d corrupt serves for one rotten Get, want 1", corrupt-corrupt0)
	}
	if got, err := c.Get(ctx, "good"); err != nil || !bytes.Equal(got, block) {
		t.Fatalf("Get after the rotten one: err %v", err)
	}
	if holdsOneBatch(c) {
		t.Errorf("the client keeps its one-name batch after the Gets: %+v", c.one)
	}
}

// TestRotReportIsOneExchange: one ranges exchange that lands two rotten
// names reports both to their server in one verify exchange (one per name
// before), and the server counts each as one corrupt serve; the intact
// name between them lands.
func TestRotReportIsOneExchange(t *testing.T) {
	servers, addrs := startServers(t, mustCode(t), 1)
	srv := servers[0]
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	block := make([]byte, 256)
	rand.New(rand.NewSource(82)).Read(block)
	names := []string{"a", "b", "c"}
	if err := c.puts(ctx, listOf(names...), [][]byte{block, block, block}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "c"} {
		if err := srv.CorruptBlock(name, 9); err != nil {
			t.Fatal(err)
		}
	}
	dst, verdicts := [][]byte{make([]byte, len(block)), make([]byte, len(block)), make([]byte, len(block))}, make([]error, 3)
	verifies0, corrupt0 := servedExchanges(opVerify), srv.corruptServes.Load()
	if err := c.ranges(ctx, listOf(names...), 0, dst, verdicts); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(verdicts[0], ErrCorrupt) || verdicts[1] != nil || !errors.Is(verdicts[2], ErrCorrupt) || !bytes.Equal(dst[1], block) {
		t.Fatalf("verdicts %v, want the reader's ErrCorrupt for a and c, and b landed", verdicts)
	}
	if n := servedExchanges(opVerify) - verifies0; n != 1 {
		t.Errorf("the reader reported the two rotten names in %d verify exchanges, want 1", n)
	}
	if n := srv.corruptServes.Load() - corrupt0; n != 2 {
		t.Errorf("the server counted %d corrupt serves, want one per rotten name: 2", n)
	}
}
