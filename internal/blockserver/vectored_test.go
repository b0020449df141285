package blockserver

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"carousel/internal/frame"
)

// fakeVectoredConn is an in-process net.Conn that records every write. It
// implements vectoredWriter, so flushVectored hands it whole gather lists —
// letting the tests below pin that a stripe write leaves the client as a
// single vectored write whose payload entry aliases the caller's buffer
// (no intermediate copy). Reads serve a canned statusOK empty response,
// built with the frame encoder.
type fakeVectoredConn struct {
	vectoredCalls [][]int // buffer lengths of each WriteVectored call
	payloadPtr    *byte   // first byte of the payload buffer in the last call
	plainWrites   int     // Write calls that bypassed the vectored path
	resp          bytes.Reader
}

func (f *fakeVectoredConn) WriteVectored(bufs net.Buffers) (int64, error) {
	lens := make([]int, len(bufs))
	var total int64
	for i, b := range bufs {
		lens[i] = len(b)
		total += int64(len(b))
	}
	f.vectoredCalls = append(f.vectoredCalls, lens)
	if len(bufs) > 1 && len(bufs[1]) > 0 {
		f.payloadPtr = &bufs[1][0]
	}
	// Arm the canned response: statusOK, zero-length payload.
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
// framing: a warm stripe write (client Put) must leave as exactly one
// vectored write of [header, payload], where the payload entry is the
// caller's own buffer — byte-for-byte the same backing memory, proving no
// intermediate copy happened on the way out.
func TestPutIsSingleVectoredWrite(t *testing.T) {
	fake := &fakeVectoredConn{}
	c := NewClient("fake:0", Options{})
	c.conn, c.fr = fake, frame.NewReader(fake, maxPayload) // in-package injection: ensure() reuses a live conn

	data := bytes.Repeat([]byte("p"), 64<<10)
	if err := c.Put(context.Background(), "blk", data); err != nil {
		t.Fatal(err)
	}
	if got := len(fake.vectoredCalls); got != 1 {
		t.Fatalf("Put issued %d vectored writes, want exactly 1", got)
	}
	call := fake.vectoredCalls[0]
	if len(call) != 2 {
		t.Fatalf("vectored write carried %d buffers, want 2 (header + payload)", len(call))
	}
	// header = frame header + meta of nameLen(2) + name(3)
	if want := frame.HeaderLen + 2 + 3; call[0] != want {
		t.Errorf("header buffer is %d bytes, want %d", call[0], want)
	}
	if call[1] != len(data) {
		t.Errorf("payload buffer is %d bytes, want %d", call[1], len(data))
	}
	if fake.payloadPtr != &data[0] {
		t.Error("payload buffer does not alias the caller's data: an intermediate copy happened")
	}
	if fake.plainWrites != 0 {
		t.Errorf("%d plain writes bypassed the vectored path, want 0", fake.plainWrites)
	}
}

// TestReplyIsSingleVectoredWrite pins the server half: a block-serving
// reply must flush header and payload as one vectored write whose payload
// entry aliases the stored block (the server never copies a block to
// serve it).
func TestReplyIsSingleVectoredWrite(t *testing.T) {
	fake := &fakeVectoredConn{}
	s := NewServer(nil)
	t.Cleanup(func() { s.Close() })
	block := bytes.Repeat([]byte("b"), 32<<10)
	cs := &connState{conn: fake}
	if err := s.reply(cs, opGet, statusOK, block); err != nil {
		t.Fatal(err)
	}
	if got := len(fake.vectoredCalls); got != 1 {
		t.Fatalf("reply issued %d vectored writes, want exactly 1", got)
	}
	call := fake.vectoredCalls[0]
	if len(call) != 2 || call[0] != frame.HeaderLen || call[1] != len(block) {
		t.Fatalf("reply gather list = %v, want [%d %d]", call, frame.HeaderLen, len(block))
	}
	if fake.payloadPtr != &block[0] {
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
