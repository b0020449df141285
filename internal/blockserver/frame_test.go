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
	"runtime"
	"sync"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/frame"
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
	srv := NewServer(nil)
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
		if err := c.Ranges(ctx, names, off, dst, verdicts); err == nil && !intact(dst, verdicts) {
			t.Fatalf("two-name range, bit %d: succeeded with other bytes or verdicts %v", b, verdicts)
		}
		if err := c.Ranges(ctx, names, off, dst, verdicts); err != nil || !intact(dst, verdicts) {
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

// listFrame encodes a range or chunk request whose meta is given
// verbatim, so a test can send name lists the client would never build.
func listFrame(op byte, meta []byte) []byte {
	return frame.Header{Kind: op, Meta: meta}.Append(nil)
}

// nameList encodes a range or chunk request meta: count, the names, and
// the two arguments (offset and length, or helper and failed).
func nameList(count int, names []string, arg0, arg1 uint32) []byte {
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
	put := frame.Header{Kind: opPut, Meta: appendMeta(nil, opPut, []string{"o"}, nil, 0, 0), Len: len(block), CRC: Checksum(block)}.Append(nil)
	return append(append(put, block...), listFrame(opChunk, nameList(count, names, helper, failed))...)
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
		{"no names", nameList(0, nil, 0, 1)},
		{"count past the meta", nameList(3, []string{"a", "b"}, 0, 1)},
		{"count far past the meta", nameList(math.MaxUint16, []string{"a"}, 0, 1)},
		{"empty name", nameList(2, []string{"a", ""}, 0, 1)},
		{"name over maxNameLen", nameList(1, []string{long}, 0, 1)},
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
	if err := c.Chunks(ctx, names, helper, failed, dst, verdicts); err != nil {
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
	servers, addrs := startServers(t, nil, 1)
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
		{"no names", nameList(0, nil, 0, 8)},
		{"count past the meta", nameList(3, []string{"o", "o"}, 0, 8)},
		{"count far past the meta", nameList(math.MaxUint16, []string{"o"}, 0, 8)},
		{"empty name", nameList(2, []string{"o", ""}, 0, 8)},
		{"name over maxNameLen", nameList(1, []string{long}, 0, 8)},
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
	h, alloc, err := send(listFrame(opRange, nameList(2, []string{"o", "o"}, 0, maxPayload/2+1)))
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
	if h, _, err := send(listFrame(opRange, nameList(len(many), many, 0, 1))); err != nil || h.Kind != statusError {
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
	if err := c.Ranges(ctx, names, off, dst, verdicts); err != nil {
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

// FuzzServeConn feeds arbitrary bytes to the server loop over net.Pipe,
// once on a server with no code and once on one with a small Carousel code
// (so chunk requests reach the chunk computation). Whatever the stream,
// the loop ends without a panic, and the block map changes only on a put
// frame whose header and payload both verify: every block held afterwards
// was sent, name and content, in such a frame. The committed corpus holds
// the range and chunk requests' malformed name lists (no names, a count
// past the meta, an empty or over-long name), a one-name request of each,
// an n−1-name chunk request, a 32-name range request, one whose names draw
// an OK, an out-of-range and a not-found verdict, and ranges over
// maxPayload. The over-maxPayload chunk request is not a seed: at 160 KB,
// the fuzzer would spend its time minimizing mutants of it, so
// TestChunkNameListsAreChecked covers it instead.
func FuzzServeConn(f *testing.F) {
	code, err := carousel.New(4, 2, 3, 4)
	if err != nil {
		f.Fatal(err)
	}
	put := func(name string, data []byte) []byte {
		h := frame.Header{Kind: opPut, Meta: appendMeta(nil, opPut, []string{name}, nil, 0, 0), Len: len(data), CRC: Checksum(data)}
		return append(h.Append(nil), data...)
	}
	req := func(op byte, name string, args ...uint32) []byte {
		return frame.Header{Kind: op, Meta: appendMeta(nil, op, []string{name}, args, 7, 9)}.Append(nil)
	}
	f.Add(put("a", []byte("hello")))
	f.Add(append(put("b", []byte("block")), req(opRange, "b", 1, 3)...))
	f.Add(append(append(put("c", []byte("x")), req(opDelete, "c")...), req(opStat, "c")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, code := range []*carousel.Code{nil, code} {
			srv := NewServer(code)
			cli, conn := net.Pipe()
			done := make(chan struct{})
			go func() {
				srv.serveConn(conn)
				close(done)
			}()
			go io.Copy(io.Discard, cli)
			cli.Write(data)
			cli.Close()
			<-done
			for name, b := range srv.blocks {
				if !sentInVerifiedPut(data, name, b.data) || b.crc != Checksum(b.data) {
					t.Fatalf("block %q (%d bytes) was stored without a verified put frame", name, len(b.data))
				}
			}
		}
	})
}

// sentInVerifiedPut reports whether some offset of data starts a put
// frame for name whose header and payload verify and whose payload is
// content.
func sentInVerifiedPut(data []byte, name string, content []byte) bool {
	for i := range data {
		fr := frame.NewReader(bytes.NewReader(data[i:]), len(data)-i)
		h, err := fr.Next()
		if err != nil || h.Kind != opPut {
			continue
		}
		m, err := parseMeta(h.Kind, h.Meta)
		payload := make([]byte, h.Len)
		if err == nil && string(m.name) == name && fr.Payload(h, payload) == nil && bytes.Equal(payload, content) {
			return true
		}
	}
	return false
}
