package blockserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/frame"
	"carousel/internal/obs"
	"carousel/internal/retry"
)

// flipConn flips one bit of the byte stream it writes: bit of the byte at
// stream offset bit/8, once. The block protocol's first write on a
// connection is a header — net.Buffers hands a wrapper without writev one
// Write per gather entry — so a bit below 8 × the header length lands in
// the header bytes of exactly one write.
type flipConn struct {
	net.Conn
	bit     int // -1 once flipped
	written int
}

func (c *flipConn) Write(p []byte) (int, error) {
	if i := c.bit/8 - c.written; c.bit >= 0 && i < len(p) {
		p = bytes.Clone(p)
		p[i] ^= 1 << (c.bit % 8)
		c.bit = -1
	}
	n, err := c.Conn.Write(p)
	c.written += n
	return n, err
}

// flipListener hands out connections whose writes are clean, except the
// next one accepted after arm, which flips a bit of its first reply.
type flipListener struct {
	net.Listener
	mu  sync.Mutex
	bit int
}

func (l *flipListener) arm(bit int) {
	l.mu.Lock()
	l.bit = bit
	l.mu.Unlock()
}

func (l *flipListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fc := &flipConn{Conn: c, bit: l.bit}
	l.bit = -1
	return fc, nil
}

// TestEveryHeaderBitIsChecked flips each bit of a request header and of a
// response header in flight. The header CRC must catch every one before
// anything in the header is acted on: a damaged Put never stores a block
// under another name, a damaged range request — of one name or of several
// — never returns other bytes, and a damaged response is refused at once —
// no buffer sized by a damaged length, no wait for the I/O timeout. The
// retry on a fresh connection then succeeds.
func TestEveryHeaderBitIsChecked(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flipListener{Listener: raw, bit: -1}
	srv := NewServer(mustCode(t))
	addr, err := srv.StartListener(ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	ctx := context.Background()
	opts := Options{DialTimeout: 2 * time.Second, IOTimeout: 3 * time.Second, Retry: retry.Policy{Attempts: 1}}
	block := make([]byte, 1024)
	rand.New(rand.NewSource(33)).Read(block)
	const off, n = 100, 200
	// flipped returns a client whose first request header has bit b flipped.
	flipped := func(b int) *Client {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(addr, opts)
		fc := &flipConn{Conn: conn, bit: b}
		c.conn, c.fr = fc, frame.NewReader(fc, maxPayload)
		return c
	}
	onlyBlk := func() error {
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		for name, b := range srv.blocks {
			if name != "blk" || !bytes.Equal(b.data, block) {
				return fmt.Errorf("server holds %q (%d bytes)", name, len(b.data))
			}
		}
		return nil
	}
	seed := NewClient(addr, opts)
	defer seed.Close()
	if err := seed.Put(ctx, "blk", block); err != nil {
		t.Fatal(err)
	}

	// header = frame header + meta of nameLen(2) + "blk" (+ two arguments)
	putHdr := frame.HeaderLen + 2 + 3
	for b := 0; b < 8*putHdr; b++ {
		c := flipped(b)
		if err := c.Put(ctx, "blk", block); err == nil {
			t.Errorf("put, bit %d: a damaged header was acted on", b)
		}
		if err := onlyBlk(); err != nil {
			t.Fatalf("put, bit %d: %v", b, err)
		}
		if err := c.Put(ctx, "blk", block); err != nil {
			t.Fatalf("put, bit %d: retry: %v", b, err)
		}
		c.Close()
	}

	// a range meta adds the name count (2) and offset and length (8)
	rangeHdr := putHdr + 2 + 8
	for b := 0; b < 8*rangeHdr; b++ {
		c := flipped(b)
		dst := make([]byte, n)
		if err := c.GetRangeInto(ctx, "blk", off, dst); err == nil && !bytes.Equal(dst, block[off:off+n]) {
			t.Fatalf("range, bit %d: succeeded with other bytes", b)
		}
		if err := c.GetRangeInto(ctx, "blk", off, dst); err != nil || !bytes.Equal(dst, block[off:off+n]) {
			t.Fatalf("range, bit %d: retry: %v", b, err)
		}
		c.Close()
	}

	// Two names: the count, then nameLen(2) + "blk" twice, then the range.
	names := []string{"blk", "blk"}
	rangesHdr := frame.HeaderLen + 2 + 2*(2+3) + 8
	intact := func(dst [][]byte, verdicts []error) bool {
		for i := range dst {
			if verdicts[i] != nil || !bytes.Equal(dst[i], block[off:off+n]) {
				return false
			}
		}
		return true
	}
	for b := 0; b < 8*rangesHdr; b++ {
		c := flipped(b)
		dst, verdicts := [][]byte{make([]byte, n), make([]byte, n)}, make([]error, 2)
		if err := c.ranges(ctx, listOf(names...), off, dst, verdicts); err == nil && !intact(dst, verdicts) {
			t.Fatalf("two-name range, bit %d: succeeded with other bytes or verdicts %v", b, verdicts)
		}
		if err := c.ranges(ctx, listOf(names...), off, dst, verdicts); err != nil || !intact(dst, verdicts) {
			t.Fatalf("two-name range, bit %d: retry: %v, verdicts %v", b, err, verdicts)
		}
		c.Close()
	}

	var m0, m1 runtime.MemStats
	for b := 0; b < 8*frame.HeaderLen; b++ {
		ln.arm(b)
		c, err := DialContext(ctx, addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		_, err = c.Get(ctx, "blk")
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Fatalf("response, bit %d: a damaged header was acted on", b)
		}
		if elapsed > time.Second {
			t.Fatalf("response, bit %d: refused after %v, want at once (I/O timeout %v)", b, elapsed, opts.IOTimeout)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64<<10 {
			t.Fatalf("response, bit %d: refusing it allocated %d bytes, want at most 64 KiB", b, alloc)
		}
		got, err := c.Get(ctx, "blk")
		if err != nil || !bytes.Equal(got, block) {
			t.Fatalf("response, bit %d: retry: %v", b, err)
		}
		Recycle(got)
		c.Close()
	}
}

// TestEveryPutHeaderBitIsChecked flips each bit of a three-name put's
// header in flight, its names' stripe records included: the server
// refuses every one before storing anything — no block under a damaged
// name, none of a damaged size or record, and not the undamaged names
// either — and the retry on a fresh connection stores all three, each
// with its record.
func TestEveryPutHeaderBitIsChecked(t *testing.T) {
	servers, addrs := startServers(t, mustCode(t), 1)
	srv, addr := servers[0], addrs[0]
	ctx := context.Background()
	opts := Options{DialTimeout: 2 * time.Second, IOTimeout: 3 * time.Second, Retry: retry.Policy{Attempts: 1}}
	names := []string{"p0", "p1", "p2"}
	blocks, crcs, recs := make([][]byte, len(names)), make([]uint32, len(names)), make([][]uint32, len(names))
	rng := rand.New(rand.NewSource(36))
	for i := range blocks {
		blocks[i] = make([]byte, 512)
		rng.Read(blocks[i])
		crcs[i] = Checksum(blocks[i])
		recs[i] = []uint32{crcs[i], rng.Uint32()}
	}
	held := func() int {
		n, _, _ := srv.Stats()
		return int(n)
	}
	// header = frame header + count(2) + three times nameLen(2) + name(2),
	// then w(1) and three two-CRC records
	hdr := frame.HeaderLen + 2 + len(names)*(2+2) + 1 + len(names)*2*4
	for b := 0; b < 8*hdr; b++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(addr, opts)
		fc := &flipConn{Conn: conn, bit: b}
		c.conn, c.fr = fc, frame.NewReader(fc, maxPayload)
		if err := c.puts(ctx, listOf(names...), blocks, crcs, recs); err == nil {
			t.Errorf("bit %d: a damaged put header was acted on", b)
		}
		if n := held(); n != 0 {
			t.Fatalf("bit %d: a refused put left %d blocks", b, n)
		}
		if err := c.puts(ctx, listOf(names...), blocks, crcs, recs); err != nil {
			t.Fatalf("bit %d: retry: %v", b, err)
		}
		for i, name := range names {
			srv.mu.RLock()
			rec := srv.blocks[name].rec
			srv.mu.RUnlock()
			if !slices.Equal(rec, recs[i]) {
				t.Fatalf("bit %d: %s stored with record %x, want %x", b, name, rec, recs[i])
			}
			got, err := c.Get(ctx, name)
			if err != nil || !bytes.Equal(got, blocks[i]) {
				t.Fatalf("bit %d: %s after the retry: %v", b, name, err)
			}
			Recycle(got)
			if err := c.Delete(ctx, name); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
}

// listFrame encodes a range or chunk request whose meta is given
// verbatim, so a test can send name lists the client would never build.
func listFrame(op byte, meta []byte) []byte {
	return frame.Header{Kind: op, Meta: meta}.Append(nil)
}

// listOf is a name list of names, as a Store's lists are built.
func listOf(names ...string) nameList {
	var l nameList
	for _, name := range names {
		l.add(name)
	}
	return l
}

// listMeta encodes a range or chunk request meta: count, the names, and
// the two arguments (offset and length, or helper and failed).
func listMeta(count int, names []string, arg0, arg1 uint32) []byte {
	meta := binary.BigEndian.AppendUint16(nil, uint16(count))
	for _, n := range names {
		meta = binary.BigEndian.AppendUint16(meta, uint16(len(n)))
		meta = append(meta, n...)
	}
	meta = binary.BigEndian.AppendUint32(meta, arg0)
	return binary.BigEndian.AppendUint32(meta, arg1)
}

// oversizedChunkRequest is a put of one block and a chunk request naming
// it as often as a meta can hold, so the answer would be over maxPayload:
// a chunk count no buffer may be sized from. The block is the smallest, a
// multiple of align, for which the chunks of alpha-th its size pass the
// limit.
func oversizedChunkRequest(align, alpha int) []byte {
	const helper, failed = 0, 1
	count := (math.MaxUint16 - 2 - 8) / 3 // one-byte names
	chunk := maxPayload/count + 1
	block := make([]byte, (chunk*alpha+align-1)/align*align)
	names := make([]string, count)
	for i := range names {
		names[i] = "o"
	}
	put := frame.Header{Kind: opPut, Meta: appendMeta(nil, opPut, listOf("o"), nil, nil, 0, 0), Len: len(block), CRC: Checksum(block)}.Append(nil)
	return append(append(put, block...), listFrame(opChunk, listMeta(count, names, helper, failed))...)
}

// TestChunkNameListsAreChecked: a chunk request's name list is refused
// before anything is sized from it — no names, a count that runs past the
// meta, an empty or over-long name end the connection, and chunks that
// would not fit under maxPayload draw statusError — while well-formed
// lists of one name and of n−1 names get a verdict per name and the OK
// chunks in request order.
func TestChunkNameListsAreChecked(t *testing.T) {
	code := mustCode(t)
	servers, addrs := startServers(t, code, 1)
	srv, addr := servers[0], addrs[0]
	ctx := context.Background()
	opts := Options{DialTimeout: 2 * time.Second, IOTimeout: 3 * time.Second, Retry: retry.Policy{Attempts: 1}}

	var m0, m1 runtime.MemStats
	// send writes raw request bytes on a fresh connection and reads one
	// response header; err is io.EOF when the server closed instead.
	send := func(req []byte) (h frame.Header, alloc uint64, err error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		runtime.ReadMemStats(&m0)
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		h, err = frame.NewReader(conn, maxPayload).Next()
		runtime.ReadMemStats(&m1)
		return h, m1.TotalAlloc - m0.TotalAlloc, err
	}
	long := string(bytes.Repeat([]byte("n"), maxNameLen+1))
	for _, tc := range []struct {
		name string
		meta []byte
	}{
		{"no names", listMeta(0, nil, 0, 1)},
		{"count past the meta", listMeta(3, []string{"a", "b"}, 0, 1)},
		{"count far past the meta", listMeta(math.MaxUint16, []string{"a"}, 0, 1)},
		{"empty name", listMeta(2, []string{"a", ""}, 0, 1)},
		{"name over maxNameLen", listMeta(1, []string{long}, 0, 1)},
	} {
		h, alloc, err := send(listFrame(opChunk, tc.meta))
		if !errors.Is(err, io.EOF) {
			t.Errorf("%s: got a %d-status answer (%v), want the connection closed", tc.name, h.Kind, err)
		}
		if alloc > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes, want at most 1 MiB", tc.name, alloc)
		}
	}

	// The put and the oversized chunk request share a connection: the put
	// is answered OK, the chunk request with statusError and no verdicts.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fr := frame.NewReader(conn, maxPayload)
	runtime.ReadMemStats(&m0)
	if _, err := conn.Write(oversizedChunkRequest(code.BlockAlign(), code.Alpha())); err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{statusOK, statusError} {
		h, err := fr.Next()
		if err != nil || h.Kind != want || len(h.Meta) != 0 {
			t.Fatalf("oversized chunk request, answer %d: status %d (%v), want %d", i, h.Kind, err, want)
		}
		if err := fr.Payload(h, make([]byte, h.Len)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 8<<20 {
		t.Errorf("refusing chunks over maxPayload allocated %d bytes, want at most 8 MiB", alloc)
	}

	// Well-formed lists: one name, then n−1 names with a missing and a
	// corrupt block among them.
	blockSize := code.BlockAlign() * 4
	shards := make([][]byte, code.K())
	rng := rand.New(rand.NewSource(34))
	for i := range shards {
		shards[i] = make([]byte, blockSize)
		rng.Read(shards[i])
	}
	blocks, err := code.Encode(shards)
	if err != nil {
		t.Fatal(err)
	}
	const helper, failed = 4, 0
	c := NewClient(addr, opts)
	defer c.Close()
	names := make([]string, code.N()-1)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		if err := c.Put(ctx, names[i], blocks[helper]); err != nil {
			t.Fatal(err)
		}
	}
	const gone, rotten = 2, 5
	if err := c.Delete(ctx, names[gone]); err != nil {
		t.Fatal(err)
	}
	if err := srv.CorruptBlock(names[rotten], 1); err != nil {
		t.Fatal(err)
	}
	want, err := code.HelperChunk(helper, failed, blocks[helper])
	if err != nil {
		t.Fatal(err)
	}
	one, err := c.Chunk(ctx, names[0], helper, failed)
	if err != nil || !bytes.Equal(one, want) {
		t.Fatalf("one-name chunk: %v, identical %v", err, bytes.Equal(one, want))
	}
	Recycle(one)
	if _, err := c.Chunk(ctx, names[gone], helper, failed); !errors.Is(err, ErrNotFound) {
		t.Fatalf("one-name chunk of a missing block: %v, want ErrNotFound", err)
	}
	dst, verdicts := make([][]byte, len(names)), make([]error, len(names))
	for i := range dst {
		dst[i] = make([]byte, len(want))
	}
	exchanges0 := servedExchanges(opChunk)
	if err := c.chunks(ctx, listOf(names...), helper, failed, dst, nil, verdicts); err != nil {
		t.Fatalf("n−1-name chunk request: %v", err)
	}
	if got := servedExchanges(opChunk) - exchanges0; got != 1 {
		t.Errorf("n−1 names took %d exchanges, want 1", got)
	}
	for i := range names {
		switch {
		case i == gone && !errors.Is(verdicts[i], ErrNotFound):
			t.Errorf("missing block's verdict: %v, want ErrNotFound", verdicts[i])
		case i == rotten && !errors.Is(verdicts[i], ErrCorrupt):
			t.Errorf("corrupt block's verdict: %v, want ErrCorrupt", verdicts[i])
		case i != gone && i != rotten && (verdicts[i] != nil || !bytes.Equal(dst[i], want)):
			t.Errorf("name %d: verdict %v, chunk identical %v", i, verdicts[i], bytes.Equal(dst[i], want))
		}
	}
}

// TestRangeNameListsAreChecked: a range request's name list is refused
// before anything is sized or verified from it — no names, a count that
// runs past the meta, an empty or over-long name end the connection, and
// ranges of found blocks that could cost more than maxPayload draw
// statusError — while a well-formed list of 32 names gets a verdict per
// name (a missing, a corrupt and a too-short block among them) and the OK
// ranges in request order, in one exchange.
func TestRangeNameListsAreChecked(t *testing.T) {
	servers, addrs := startServers(t, mustCode(t), 1)
	srv, addr := servers[0], addrs[0]
	ctx := context.Background()
	opts := Options{DialTimeout: 2 * time.Second, IOTimeout: 3 * time.Second, Retry: retry.Policy{Attempts: 1}}
	c := NewClient(addr, opts)
	defer c.Close()
	block := make([]byte, 64<<10)
	rand.New(rand.NewSource(35)).Read(block)
	if err := c.Put(ctx, "o", block); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	// send writes raw request bytes on a fresh connection and reads one
	// response header and its payload; err is io.EOF when the server
	// closed instead.
	send := func(req []byte) (h frame.Header, alloc uint64, err error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		fr := frame.NewReader(conn, maxPayload)
		runtime.ReadMemStats(&m0)
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if h, err = fr.Next(); err == nil {
			err = fr.Payload(h, make([]byte, h.Len))
		}
		runtime.ReadMemStats(&m1)
		return h, m1.TotalAlloc - m0.TotalAlloc, err
	}
	verified0 := srv.corruptServes.Load()
	long := string(bytes.Repeat([]byte("n"), maxNameLen+1))
	for _, tc := range []struct {
		name string
		meta []byte
	}{
		{"no names", listMeta(0, nil, 0, 8)},
		{"count past the meta", listMeta(3, []string{"o", "o"}, 0, 8)},
		{"count far past the meta", listMeta(math.MaxUint16, []string{"o"}, 0, 8)},
		{"empty name", listMeta(2, []string{"o", ""}, 0, 8)},
		{"name over maxNameLen", listMeta(1, []string{long}, 0, 8)},
	} {
		h, alloc, err := send(listFrame(opRange, tc.meta))
		if !errors.Is(err, io.EOF) {
			t.Errorf("%s: got a %d-status answer (%v), want the connection closed", tc.name, h.Kind, err)
		}
		if alloc > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes, want at most 1 MiB", tc.name, alloc)
		}
	}
	// Two names of a found block, each asking for over half of maxPayload:
	// refused whole, with no verdicts, and nothing sized from the length.
	h, alloc, err := send(listFrame(opRange, listMeta(2, []string{"o", "o"}, 0, maxPayload/2+1)))
	if err != nil || h.Kind != statusError || len(h.Meta) != 0 {
		t.Errorf("ranges over maxPayload: status %d, %d verdicts (%v), want statusError and none", h.Kind, len(h.Meta), err)
	}
	if alloc > 1<<20 {
		t.Errorf("refusing ranges over maxPayload allocated %d bytes, want at most 1 MiB", alloc)
	}
	// So is a found block named more often than its checksums may cost,
	// however short the range: 16,385 names fit in a meta.
	many := make([]string, maxPayload/len(block)+1)
	for i := range many {
		many[i] = "o"
	}
	if h, _, err := send(listFrame(opRange, listMeta(len(many), many, 0, 1))); err != nil || h.Kind != statusError {
		t.Errorf("%d names of one %d-byte block: status %d (%v), want statusError", len(many), len(block), h.Kind, err)
	}
	if n := srv.corruptServes.Load() - verified0; n != 0 {
		t.Errorf("the refusals verified blocks: %d corrupt serves", n)
	}

	// A well-formed batch of 32 names.
	const off, length = 1000, 2000
	const gone, rotten, short = 5, 17, 30
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		data := block
		if i == short {
			data = block[:off+length-1]
		}
		if err := c.Put(ctx, names[i], data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(ctx, names[gone]); err != nil {
		t.Fatal(err)
	}
	if err := srv.CorruptBlock(names[rotten], 1); err != nil {
		t.Fatal(err)
	}
	dst, verdicts := make([][]byte, len(names)), make([]error, len(names))
	for i := range dst {
		dst[i] = make([]byte, length)
	}
	exchanges0 := servedExchanges(opRange)
	if err := c.ranges(ctx, listOf(names...), off, dst, verdicts); err != nil {
		t.Fatalf("32-name range request: %v", err)
	}
	if got := servedExchanges(opRange) - exchanges0; got != 1 {
		t.Errorf("32 names took %d exchanges, want 1", got)
	}
	for i := range names {
		switch {
		case i == gone && !errors.Is(verdicts[i], ErrNotFound):
			t.Errorf("missing block's verdict: %v, want ErrNotFound", verdicts[i])
		case i == rotten && !errors.Is(verdicts[i], ErrCorrupt):
			t.Errorf("corrupt block's verdict: %v, want ErrCorrupt", verdicts[i])
		case i == short && !errors.Is(verdicts[i], ErrRemote):
			t.Errorf("verdict of a block the range runs past: %v, want ErrRemote", verdicts[i])
		case i != gone && i != rotten && i != short && (verdicts[i] != nil || !bytes.Equal(dst[i], block[off:off+length])):
			t.Errorf("name %d: verdict %v, range identical %v", i, verdicts[i], bytes.Equal(dst[i], block[off:off+length]))
		}
	}
	// The one-name forms carry the same verdicts as errors.
	one := make([]byte, length)
	if err := c.GetRangeInto(ctx, names[gone], off, one); !errors.Is(err, ErrNotFound) {
		t.Errorf("one-name range of a missing block: %v, want ErrNotFound", err)
	}
	if err := c.GetRangeInto(ctx, names[short], off, one); !errors.Is(err, ErrRemote) {
		t.Errorf("one-name range past its block: %v, want ErrRemote", err)
	}
	if err := c.GetRangeInto(ctx, names[0], off, one); err != nil || !bytes.Equal(one, block[off:off+length]) {
		t.Errorf("one-name range: %v, identical %v", err, bytes.Equal(one, block[off:off+length]))
	}
}

// FuzzServeConn feeds arbitrary bytes to the server loop of a server with a
// small Carousel code (so chunk requests reach the chunk computation), and
// reads the stream to its end before the loop sees the connection close, so
// every request in it is handled. Whatever the stream, the loop ends without
// a panic, and the block map changes only on a put frame whose header and
// payload both verify: every block held afterwards was sent, name, content
// and stripe record, in such a frame — so a record is sized only from a
// verified meta — and holds the CRC of every granule of it at the server's
// grain. The committed corpus holds the put, range and chunk requests'
// malformed name lists (no names, a count past the meta, an empty or
// over-long name), a put whose payload does not split into its count of
// blocks and one with a flipped payload byte, puts whose names carry stripe
// records of n CRCs or none, and one whose records run past its meta, a
// three-name put read back by a three-name range, a one-name request of
// each, an n−1-name chunk request, a chunk request whose answer carries a
// record for one name, none for another and a not-found verdict for a third
// — followed by that answer, sent back as if a request — a 32-name range
// request, one whose names draw an OK, an out-of-range and a not-found
// verdict, ranges over maxPayload, ranges that start and end mid-granule,
// and an aligned two-name range followed by the answer it draws — verdicts
// and CRCs in its meta — sent back as if a request; whole-block ranges
// (length 0, to the end), one traced, one over blocks of different sizes and
// one after an old client's retired get (op 2); verifies of a block present
// and of one missing, one verify of a list of blocks with a stripe record,
// with none and missing, a delete of a list of blocks some of which are
// missing, and a verify in the one-name form delete and verify once had,
// which closes the connection before the delete that follows it. (A rotten
// block cannot be sent: a put stores only what its CRC verifies;
// TestVerifiesAnswersPerName verifies one.) The over-maxPayload chunk
// request is not a seed: at 160 KB, the fuzzer would spend its time
// minimizing mutants of it, so TestChunkNameListsAreChecked covers it
// instead.
func FuzzServeConn(f *testing.F) {
	code, err := carousel.New(4, 2, 3, 4)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range serveConnSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(code)
		srv.serveConn(&streamConn{r: bytes.NewReader(data)})
		for name, b := range srv.blocks {
			if !sentInVerifiedPut(data, name, b.data, b.rec) {
				t.Fatalf("block %q (%d bytes, %d-CRC record) was stored without a verified put frame", name, len(b.data), len(b.rec))
			}
			// Its at-rest record is a CRC per granule of the server's
			// grain, each right, combining to the block's.
			g := srv.grain(len(b.data))
			if len(b.crcs) != frame.Granules(len(b.data), g) || wholeCRC(b) != Checksum(b.data) {
				t.Fatalf("block %q (%d bytes): %d granule CRCs at grain %d combine to %08x, want %08x", name, len(b.data), len(b.crcs), g, wholeCRC(b), Checksum(b.data))
			}
			for i, c := range b.crcs {
				if g := b.grain(); c != Checksum(b.data[i*g:(i+1)*g]) {
					t.Fatalf("block %q: granule %d CRC %08x, want %08x", name, i, c, Checksum(b.data[i*g:(i+1)*g]))
				}
			}
		}
	})
}

// TestRetiredOpsAreUnknown: op bytes 2 and 6 were a whole-block get and a
// stat. An old client's frame of either, traced or not, draws the answer
// any unknown op draws — statusError, counted under op "unknown", with no
// span — the connection stays in sync for the whole-block range that
// follows, and nothing is stored.
func TestRetiredOpsAreUnknown(t *testing.T) {
	servers, addrs := startServers(t, mustCode(t), 1)
	tracer := obs.NewTracer(64)
	servers[0].SetTracer(tracer)
	data := []byte("a block an old client reads")
	seed, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	if err := seed.Put(context.Background(), "b", data); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fr := frame.NewReader(conn, maxPayload)
	// exchange sends one request and reads its answer.
	exchange := func(op byte, meta []byte) (frame.Header, []byte) {
		t.Helper()
		if _, err := conn.Write(frame.Header{Kind: op, Meta: meta}.Append(nil)); err != nil {
			t.Fatal(err)
		}
		h, err := fr.Next()
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		payload := make([]byte, h.Len)
		if err := fr.Payload(h, payload); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		return h, payload
	}
	unknown0 := srvRPCCounter(0, statusError).Value()
	for _, op := range []byte{2, 6} {
		// nameLen(2) name, then a trace context: an old get or stat meta,
		// which the server does not read.
		meta := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{0, 1, 'b'}, uint64(op)), 1)
		if h, msg := exchange(op, meta); h.Kind != statusError || string(msg) != fmt.Sprintf("unknown op %d", op) {
			t.Errorf("retired op %d: status %d, %q; want statusError, the unknown-op answer", op, h.Kind, msg)
		}
		if spans := tracer.Spans(uint64(op)); len(spans) != 0 {
			t.Errorf("retired op %d started %d server spans, want none", op, len(spans))
		}
	}
	if n := srvRPCCounter(0, statusError).Value() - unknown0; n != 2 {
		t.Errorf("the server counted %d unknown ops, want 2", n)
	}
	h, got := exchange(opRange, appendMeta(nil, opRange, listOf("b"), []uint32{0, 0}, nil, 0, 0))
	if h.Kind != statusOK || len(h.Meta) != 5 || h.Meta[0] != statusOK || !bytes.Equal(got, data) {
		t.Fatalf("whole-block range after the retired ops: status %d, meta %x, %q", h.Kind, h.Meta, got)
	}
	if blocks, bytes, _ := servers[0].Stats(); blocks != 1 || bytes != int64(len(data)) {
		t.Errorf("the server holds %d blocks of %d bytes, want the one put", blocks, bytes)
	}
}

// TestOneNameFormIsRefused: a delete or a verify in the one-name form they
// once had — nameLen(2) name — reads as a count and a first name whose
// length, two printable bytes, passes maxNameLen. The server closes the
// connection with no answer, so a delete that follows on it is never
// acted on, and the block stays.
func TestOneNameFormIsRefused(t *testing.T) {
	block := []byte("kept")
	put := frame.Header{Kind: opPut, Meta: appendMeta(nil, opPut, listOf("present"), nil, nil, 0, 0), Len: len(block), CRC: Checksum(block)}.Append(nil)
	put = append(put, block...)
	oneName := append(binary.BigEndian.AppendUint16(nil, uint16(len("present"))), "present"...)
	deleteList := frame.Header{Kind: opDelete, Meta: appendMeta(nil, opDelete, listOf("present"), nil, nil, 0, 0)}.Append(nil)
	for _, op := range []byte{opDelete, opVerify} {
		stream := append(append(bytes.Clone(put), frame.Header{Kind: op, Meta: oneName}.Append(nil)...), deleteList...)
		srv := NewServer(mustCode(t))
		conn := &replyConn{streamConn: streamConn{r: bytes.NewReader(stream)}}
		srv.serveConn(conn)
		fr := frame.NewReader(&conn.out, maxPayload)
		if h, err := fr.Next(); err != nil || h.Kind != statusOK {
			t.Fatalf("%s: the put drew status %d (%v), want statusOK", opNames[op], h.Kind, err)
		}
		if h, err := fr.Next(); err != io.EOF {
			t.Errorf("%s in the one-name form drew status %d (%v), want no answer", opNames[op], h.Kind, err)
		}
		if _, held := srv.blocks["present"]; !held {
			t.Errorf("%s in the one-name form: the block is gone, want the connection closed before the delete", opNames[op])
		}
	}
}

// serveConnSeeds are FuzzServeConn's seeds beside its committed corpus.
func serveConnSeeds() [][]byte {
	// put is a one-name put with no record: meta count(2) nameLen(2) name w(1).
	put := func(name string, data []byte) []byte {
		meta := binary.BigEndian.AppendUint16([]byte{0, 1}, uint16(len(name)))
		h := frame.Header{Kind: opPut, Meta: append(append(meta, name...), 0), Len: len(data), CRC: Checksum(data)}
		return append(h.Append(nil), data...)
	}
	req := func(op byte, name string, args ...uint32) []byte {
		return frame.Header{Kind: op, Meta: appendMeta(nil, op, listOf(name), args, nil, 7, 9)}.Append(nil)
	}
	return [][]byte{
		put("a", []byte("hello")),
		append(put("b", []byte("block")), req(opRange, "b", 1, 3)...),
		append(append(put("c", []byte("x")), req(opDelete, "c")...), req(opVerify, "c")...),
	}
}

// TestFuzzSeedsReachEveryOp walks the frames of every FuzzServeConn seed,
// the f.Add ones and the committed corpus, as the server loop reads them —
// a frame whose header or meta fails to verify or parse ends its stream —
// and fails when an op in the op table is in no seed's stream.
func TestFuzzSeedsReachEveryOp(t *testing.T) {
	seeds := serveConnSeeds()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzServeConn", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %d files, %v", len(files), err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "go test fuzz v1\n[]byte(")
		seed, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file: %v", file, err)
		}
		seeds = append(seeds, []byte(seed))
	}
	reached := map[byte]bool{}
	for _, seed := range seeds {
		fr := frame.NewReader(bytes.NewReader(seed), len(seed))
		for {
			h, err := fr.Next()
			if err != nil {
				break
			}
			if _, err := parseMeta(h.Kind, h.Meta); err != nil {
				break
			}
			reached[h.Kind] = true
			if fr.Payload(h, make([]byte, h.Len)) != nil {
				break
			}
		}
	}
	for op, name := range opNames {
		if op > 0 && name != "" && !reached[byte(op)] {
			t.Errorf("no FuzzServeConn seed sends op %d (%s)", op, name)
		}
	}
}

// sameRecord reports whether a put meta's record, 4 bytes per CRC, is rec.
func sameRecord(sent []byte, rec []uint32) bool {
	if len(sent) != 4*len(rec) {
		return false
	}
	for i, c := range rec {
		if binary.BigEndian.Uint32(sent[4*i:]) != c {
			return false
		}
	}
	return true
}

// streamConn is a connection whose far end sends a fixed stream, then
// closes, and discards every answer: the server loop handles each request
// in the stream before it reads the end.
type streamConn struct {
	net.Conn // nil: the server loop calls only Read, Write and Close
	r        io.Reader
}

func (c *streamConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *streamConn) Close() error                { return nil }

// sentInVerifiedPut reports whether some offset of data starts a put
// frame whose header and payload verify, whose payload splits into its
// count of equal blocks, and which names name for a block that is content
// with the stripe record rec.
func sentInVerifiedPut(data []byte, name string, content []byte, rec []uint32) bool {
	for i := range data {
		fr := frame.NewReader(bytes.NewReader(data[i:]), len(data)-i)
		h, err := fr.Next()
		if err != nil || h.Kind != opPut {
			continue
		}
		m, err := parseMeta(h.Kind, h.Meta)
		if err != nil || h.Len%m.count != 0 {
			continue
		}
		payload := make([]byte, h.Len)
		if fr.Payload(h, payload) != nil {
			continue
		}
		size := h.Len / m.count
		for j, list := 0, m.names; len(list) > 0; j++ {
			var n []byte
			n, list = nextName(list)
			if string(n) == name && bytes.Equal(payload[j*size:(j+1)*size], content) && sameRecord(m.recs[4*j*m.w:4*(j+1)*m.w], rec) {
				return true
			}
		}
	}
	return false
}
