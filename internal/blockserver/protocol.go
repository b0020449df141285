// Package blockserver implements a minimal TCP block store — the
// deployable analog of the paper's Hadoop datanode integration. Each
// server holds named blocks and, crucially, computes Carousel repair
// chunks *server-side*: during a reconstruction only the chunk
// (blockSize/alpha bytes) crosses the network, exactly the paper's optimal
// repair traffic.
//
// Every request and response is one internal/frame record over TCP:
//
//	request  := header(kind=op, meta=nameLen(2) name [traceID(8) parentSpanID(8)]) payload
//	response := header(kind=status, no meta) payload
//
// That is the form of put, get, delete, stat and verify; range and chunk
// requests name a list of blocks (below). Only a put carries a request
// payload, and its length and CRC32C are the frame's. The header's own
// CRC32C covers the op, the name, the arguments and the lengths, so the
// server refuses a damaged request before acting on any of it, and the
// client refuses a damaged response before sizing a buffer from it. The
// payload CRC32C catches payload damage at the receiver instead of feeding
// it into a decode. Servers keep a put's verified payload CRC as the
// block's ingest CRC32C and verify it before serving, answering
// statusCorrupt when at-rest corruption is found — the signal the client's
// read path uses to exclude the block and route it into scrub/repair.
//
// A range or chunk request names one or more blocks that share its
// arguments — a read asks each source for the same range of a whole batch
// of stripes' blocks in one exchange, and a repair pass asks each helper
// for its chunks of a whole batch of stripes the same way — so its meta
// starts with a name count:
//
//	range request  := header(kind=opRange, meta=count(2) {nameLen(2) name}×count offset(4) length(4) [trace]) no payload
//	chunk request  := header(kind=opChunk, meta=count(2) {nameLen(2) name}×count helper(4) failed(4) [trace]) no payload
//	response       := header(kind=statusOK, meta=verdict(1)×count) answer×ok
//
// The response carries one verdict byte per name, in request order:
// statusOK, statusNotFound, statusCorrupt, or statusError — for a range,
// one that falls outside its block; for a chunk, a block whose size
// differs from the first OK block's. The payload is the OK names' answers
// back to back in request order, all of one size (the range's length, or
// the chunk size), so the client knows from the verified header alone
// where each lands; the server sends a range answer as one vectored write
// of slices of the stored blocks, with no copy. A verdict concerns one
// block: the exchange itself succeeded. The server refuses a request with
// no names, a count that runs past the meta, or an empty or over-long name
// by closing the connection, before it sizes anything from the count; it
// answers statusError, with no verdicts, when the blocks it found could
// cost more than maxPayload — each the larger of its size, which is
// checksummed, and its answer; checked before it verifies any of them —
// and, for a chunk request, when it has no code or the chunk computation
// fails.
//
// Operations: put, get, range (one range of one or more blocks, for
// parallel reads of data prefixes), chunk (helper-side repair computation for one or more
// blocks), delete, stat, verify (server-side checksum audit of one block).
//
// A traced request ends its meta with the client's trace ID and span ID,
// under which the server parents its spans; an untraced one carries neither.
package blockserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"carousel/internal/bufpool"
	"carousel/internal/frame"
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
)

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
// bogus peers.
const maxPayload = 1 << 30

// traceLen is the trace context a traced request appends to its meta:
// traceID(8) + parentSpanID(8).
const traceLen = 16

// ErrNotFound is returned when a server does not hold the named block.
var ErrNotFound = errors.New("blockserver: block not found")

// Checksum returns the CRC32C of a payload.
func Checksum(b []byte) uint32 { return frame.Checksum(b) }

// multiName reports whether an op's meta carries a counted name list: the
// range and chunk ops, the two whose answers a batch shares an exchange
// for. They are also the ops with arguments.
func multiName(op byte) bool { return op == opRange || op == opChunk }

// nargs is the number of uint32 arguments an op's meta carries.
func nargs(op byte) int {
	if multiName(op) {
		return 2
	}
	return 0
}

// appendMeta encodes a request's meta: the length-prefixed names (one for
// every op but a range or chunk, whose meta starts with their count), the
// op's arguments and, when traceID is nonzero, the trace context.
func appendMeta(dst []byte, op byte, names []string, args []uint32, traceID, parent uint64) []byte {
	if multiName(op) {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(names)))
	}
	for _, name := range names {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(name)))
		dst = append(dst, name...)
	}
	for _, a := range args {
		dst = binary.BigEndian.AppendUint32(dst, a)
	}
	if traceID != 0 {
		dst = binary.BigEndian.AppendUint64(dst, traceID)
		dst = binary.BigEndian.AppendUint64(dst, parent)
	}
	return dst
}

// reqMeta is a decoded request meta. name and names alias the frame
// reader's scratch, so they are only valid until the next request.
type reqMeta struct {
	name          []byte // the only name, or a range or chunk request's first
	names         []byte // a range or chunk request's validated name list; walk it with nextName
	args          [2]uint32
	trace, parent uint64 // zero for an untraced request
}

// cutName splits one length-prefixed name off the front of b.
func cutName(b []byte) (name, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("blockserver: %d bytes left for a name", len(b))
	}
	n := int(binary.BigEndian.Uint16(b))
	if n == 0 || n > maxNameLen || n > len(b)-2 {
		return nil, nil, fmt.Errorf("blockserver: invalid name length %d", n)
	}
	return b[2 : 2+n], b[2+n:], nil
}

// nextName splits the next name off a name list parseMeta has validated.
func nextName(list []byte) (name, rest []byte) {
	n := int(binary.BigEndian.Uint16(list))
	return list[2 : 2+n], list[2+n:]
}

// parseMeta decodes the meta of a verified request header. A range or
// chunk request's name list is walked name by name against the meta's own
// length, so a count that promises more than the meta holds is refused
// without anything being sized from it.
func parseMeta(op byte, meta []byte) (m reqMeta, err error) {
	rest := meta
	if multiName(op) {
		if len(meta) < 2 {
			return m, fmt.Errorf("blockserver: %d-byte %s request meta", len(meta), opNames[op])
		}
		count, list := int(binary.BigEndian.Uint16(meta)), meta[2:]
		if count == 0 {
			return m, fmt.Errorf("blockserver: %s request names no block", opNames[op])
		}
		rest = list
		for range count {
			if _, rest, err = cutName(rest); err != nil {
				return m, err
			}
		}
		m.names = list[:len(list)-len(rest)]
		m.name, _ = nextName(m.names)
	} else if m.name, rest, err = cutName(meta); err != nil {
		return m, err
	}
	na := nargs(op)
	if len(rest) != 4*na && len(rest) != 4*na+traceLen {
		return m, fmt.Errorf("blockserver: %d bytes of arguments for op %d", len(rest), op)
	}
	for i := range na {
		m.args[i] = binary.BigEndian.Uint32(rest[4*i:])
	}
	if rest = rest[4*na:]; len(rest) == traceLen {
		m.trace, m.parent = binary.BigEndian.Uint64(rest), binary.BigEndian.Uint64(rest[8:])
	}
	return m, nil
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
