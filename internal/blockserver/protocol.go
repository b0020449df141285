// Package blockserver implements a minimal TCP block store — the
// deployable analog of the paper's Hadoop datanode integration. Each
// server holds named blocks and, crucially, computes Carousel repair
// chunks *server-side*: during a reconstruction only the chunk
// (blockSize/alpha bytes) crosses the network, exactly the paper's optimal
// repair traffic.
//
// The wire protocol is a simple length-prefixed binary format over TCP:
//
//	request  := op(1) nameLen(2) name args...
//	response := status(1) payloadLen(4) payloadCRC32C(4) payload
//
// Every frame (request payloads and response payloads alike) carries the
// CRC32C of its payload, so wire corruption is detected at the receiver
// instead of silently feeding damaged bytes into a decode. Servers
// additionally keep the ingest-time CRC32C of each stored block and verify
// it before serving, answering statusCorrupt when at-rest corruption is
// found — the signal the client's read path uses to exclude the block and
// route it into scrub/repair.
//
// Operations: put, get, range (partial read for parallel reads of data
// prefixes), chunk (helper-side repair computation), delete, stat, verify
// (server-side checksum audit of one block), tracectx (trace propagation).
//
// A traced request is preceded by opTraceCtx: a reply-less prefix frame
// reusing the name slot for a fixed 16-byte payload, traceID(8) ||
// parentSpanID(8) big-endian, that primes the *next* request's server-side
// spans to parent under the client's span. Untraced requests carry no
// prefix.
package blockserver

import (
	"errors"
	"hash/crc32"
	"io"
	"net"

	"carousel/internal/bufpool"
)

// Operation codes.
const (
	opPut byte = iota + 1
	opGet
	opRange
	opChunk
	opDelete
	opStat
	opVerify
	// opTraceCtx is a reply-less prefix frame carrying traceCtxLen bytes of
	// trace context in the name slot.
	opTraceCtx
)

// traceCtxLen is the opTraceCtx payload size: traceID(8) + parentSpanID(8).
const traceCtxLen = 16

// Status codes.
const (
	statusOK byte = iota
	statusNotFound
	statusError
	statusCorrupt
)

// maxNameLen bounds block names on the wire.
const maxNameLen = 4096

// maxPayload bounds a single payload (1 GiB), protecting servers from
// bogus length prefixes.
const maxPayload = 1 << 30

// ErrNotFound is returned when a server does not hold the named block.
var ErrNotFound = errors.New("blockserver: block not found")

// errFrameChecksum marks wire-level frame corruption. Unlike ErrCorrupt
// (at-rest corruption, a permanent verdict about the stored block) it is a
// transport fault: the client poisons the connection and may retry.
var errFrameChecksum = errors.New("blockserver: frame checksum mismatch")

// castagnoli is the CRC32C table shared by wire frames and the stored-block
// checksums (the same polynomial HDFS datanodes use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of a payload.
func Checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// vectoredWriter is a sink that consumes a whole gather list in one call.
// flushVectored prefers it over net.Buffers so in-process test doubles can
// observe (and pin) that a frame goes out as a single vectored write; real
// TCP connections take the net.Buffers path, which is writev under the
// covers.
type vectoredWriter interface {
	WriteVectored(bufs net.Buffers) (int64, error)
}

// flushVectored writes a gather list in one call when the sink supports
// it. On a *net.TCPConn, bufs.WriteTo coalesces the list into a single
// writev syscall — header and payload leave in one segment-friendly burst
// with no intermediate copy. Other writers degrade to one Write per
// buffer. bufs is consumed either way (entries are nil'd as they drain),
// which is why callers keep the backing array separate and rebuild the
// view per flush.
func flushVectored(w io.Writer, bufs *net.Buffers) error {
	if vw, ok := w.(vectoredWriter); ok {
		_, err := vw.WriteVectored(*bufs)
		*bufs = (*bufs)[:0]
		return err
	}
	_, err := bufs.WriteTo(w)
	return err
}

// Recycle returns a payload obtained from Get or Chunk to the shared
// buffer pool once the caller has copied or consumed the bytes. Recycling
// is optional (a forgotten buffer is simply garbage collected) but keeps
// the steady-state read path allocation-free. The caller must not touch
// the slice afterwards.
func Recycle(b []byte) {
	bufpool.Put(b)
}
