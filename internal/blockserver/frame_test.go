package blockserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

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
// under another name, a damaged range request never returns other bytes,
// and a damaged response is refused at once — no buffer sized by a
// damaged length, no wait for the I/O timeout. The retry on a fresh
// connection then succeeds.
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

	rangeHdr := putHdr + 8
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

// FuzzServeConn feeds arbitrary bytes to the server loop over net.Pipe.
// Whatever the stream, the loop ends without a panic, and the block map
// changes only on a put frame whose header and payload both verify: every
// block held afterwards was sent, name and content, in such a frame.
func FuzzServeConn(f *testing.F) {
	put := func(name string, data []byte) []byte {
		h := frame.Header{Kind: opPut, Meta: appendMeta(nil, name, nil, 0, 0), Len: len(data), CRC: Checksum(data)}
		return append(h.Append(nil), data...)
	}
	req := func(op byte, name string, args ...uint32) []byte {
		return frame.Header{Kind: op, Meta: appendMeta(nil, name, args, 7, 9)}.Append(nil)
	}
	f.Add(put("a", []byte("hello")))
	f.Add(append(put("b", []byte("block")), req(opRange, "b", 1, 3)...))
	f.Add(append(append(put("c", []byte("x")), req(opDelete, "c")...), req(opStat, "c")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(nil)
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
