package blockserver

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"carousel/internal/frame"
)

// fakeVectoredConn is an in-process net.Conn that records every write. It
// implements vectoredWriter, so flushVectored hands it whole gather lists —
// letting the tests below pin that a put leaves the client as a single
// vectored write whose payload entries alias the caller's buffers (no
// intermediate copy). Reads serve the answer a put or a reply test
// expects, statusOK with no meta and no payload, built with the frame
// encoder.
type fakeVectoredConn struct {
	vectoredCalls [][]int // buffer lengths of each WriteVectored call
	payloadPtrs   []*byte // first byte of each payload buffer in the last call
	plainWrites   int     // Write calls that bypassed the vectored path
	resp          bytes.Reader
}

func (f *fakeVectoredConn) WriteVectored(bufs net.Buffers) (int64, error) {
	lens := make([]int, len(bufs))
	var total int64
	f.payloadPtrs = f.payloadPtrs[:0]
	for i, b := range bufs {
		lens[i] = len(b)
		total += int64(len(b))
		if i > 0 && len(b) > 0 {
			f.payloadPtrs = append(f.payloadPtrs, &b[0])
		}
	}
	f.vectoredCalls = append(f.vectoredCalls, lens)
	// Arm the canned answer: statusOK, no meta, zero-length payload.
	f.resp.Reset(frame.Header{Kind: statusOK}.Append(nil))
	return total, nil
}

func (f *fakeVectoredConn) Read(p []byte) (int, error)       { return f.resp.Read(p) }
func (f *fakeVectoredConn) Write(p []byte) (int, error)      { f.plainWrites++; return len(p), nil }
func (f *fakeVectoredConn) Close() error                     { return nil }
func (f *fakeVectoredConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (f *fakeVectoredConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (f *fakeVectoredConn) SetDeadline(time.Time) error      { return nil }
func (f *fakeVectoredConn) SetReadDeadline(time.Time) error  { return nil }
func (f *fakeVectoredConn) SetWriteDeadline(time.Time) error { return nil }

// TestPutIsSingleVectoredWrite pins the write half of the zero-copy
// framing: a put of one block, and a put of a batch's blocks cut from one
// stripe slab, must each leave as exactly one vectored write of [header,
// block...], where every payload entry is the caller's own memory —
// byte-for-byte the same backing array, proving no intermediate copy
// happened on the way out — and the client keeps no reference to the
// blocks once the put returns.
func TestPutIsSingleVectoredWrite(t *testing.T) {
	fake := &fakeVectoredConn{}
	c := NewClient("fake:0", Options{})
	c.conn, c.fr = fake, frame.NewReader(fake, maxPayload) // in-package injection: ensure() reuses a live conn

	data := bytes.Repeat([]byte("p"), 64<<10)
	if err := c.Put(context.Background(), "blk", data); err != nil {
		t.Fatal(err)
	}
	// header = frame header + meta of count(2) + nameLen(2) + name(3) + w(1)
	checkPut(t, fake, "one-name put", frame.HeaderLen+2+2+3+1, [][]byte{data})

	const count, size = 4, 16 << 10
	slab := bytes.Repeat([]byte("s"), count*size)
	names, blocks := make([]string, count), make([][]byte, count)
	crcs, recs := make([]uint32, count), make([][]uint32, count)
	for i := range blocks {
		names[i], blocks[i] = fmt.Sprintf("f/%d/7", i), slab[i*size:(i+1)*size]
		crcs[i] = Checksum(blocks[i])
		recs[i] = []uint32{crcs[i], 1, 2}
	}
	fake.vectoredCalls = nil
	if err := c.puts(context.Background(), listOf(names...), blocks, crcs, recs); err != nil {
		t.Fatal(err)
	}
	// header = frame header + count(2) + names + w(1) + a 3-CRC record each
	checkPut(t, fake, "four-name put", frame.HeaderLen+2+count*(2+5)+1+count*3*4, blocks)
	for i, b := range c.arr {
		if b != nil {
			t.Errorf("the parked client's gather list still holds entry %d (%d bytes)", i, len(b))
		}
	}
}

// checkPut checks that the fake saw one vectored write of a hdr-byte
// header followed by exactly the caller's blocks, aliased.
func checkPut(t *testing.T, fake *fakeVectoredConn, what string, hdr int, blocks [][]byte) {
	t.Helper()
	if got := len(fake.vectoredCalls); got != 1 {
		t.Fatalf("%s issued %d vectored writes, want exactly 1", what, got)
	}
	call := fake.vectoredCalls[0]
	if len(call) != 1+len(blocks) {
		t.Fatalf("%s: vectored write carried %d buffers, want %d (header + blocks)", what, len(call), 1+len(blocks))
	}
	if call[0] != hdr {
		t.Errorf("%s: header buffer is %d bytes, want %d", what, call[0], hdr)
	}
	for i, b := range blocks {
		if call[1+i] != len(b) {
			t.Errorf("%s: payload buffer %d is %d bytes, want %d", what, i, call[1+i], len(b))
		}
		if fake.payloadPtrs[i] != &b[0] {
			t.Errorf("%s: payload buffer %d does not alias the caller's block: an intermediate copy happened", what, i)
		}
	}
	if fake.plainWrites != 0 {
		t.Errorf("%s: %d plain writes bypassed the vectored path, want 0", what, fake.plainWrites)
	}
}

// TestReplyIsSingleVectoredWrite pins the server half: a block-serving
// reply must flush header and payload as one vectored write whose payload
// entry aliases the stored block (the server never copies a block to
// serve it).
func TestReplyIsSingleVectoredWrite(t *testing.T) {
	fake := &fakeVectoredConn{}
	s := NewServer(mustCode(t))
	t.Cleanup(func() { s.Close() })
	block := bytes.Repeat([]byte("b"), 32<<10)
	cs := &connState{conn: fake}
	if err := s.reply(cs, opRange, statusOK, block); err != nil {
		t.Fatal(err)
	}
	if got := len(fake.vectoredCalls); got != 1 {
		t.Fatalf("reply issued %d vectored writes, want exactly 1", got)
	}
	call := fake.vectoredCalls[0]
	if len(call) != 2 || call[0] != frame.HeaderLen || call[1] != len(block) {
		t.Fatalf("reply gather list = %v, want [%d %d]", call, frame.HeaderLen, len(block))
	}
	if fake.payloadPtrs[0] != &block[0] {
		t.Error("reply payload does not alias the stored block: an intermediate copy happened")
	}
	if fake.plainWrites != 0 {
		t.Errorf("%d plain writes bypassed the vectored path, want 0", fake.plainWrites)
	}
}

// TestFlushVectoredFallback checks the degradation path for sinks without
// vectored support: the same bytes arrive, just via per-buffer writes.
func TestFlushVectoredFallback(t *testing.T) {
	var sink bytes.Buffer
	bufs := net.Buffers{[]byte("header|"), []byte("fallback-path")}
	if err := flushVectored(&sink, &bufs); err != nil {
		t.Fatal(err)
	}
	if got := sink.String(); got != "header|fallback-path" {
		t.Fatalf("the fallback path wrote %q", got)
	}
}
