// Package blockserver implements a minimal TCP block store — the
// deployable analog of the paper's Hadoop datanode integration. Each
// server holds named blocks and, crucially, computes Carousel repair
// chunks *server-side*: during a reconstruction only the chunk
// (blockSize/alpha bytes) crosses the network, exactly the paper's optimal
// repair traffic.
//
// Every request and response is one internal/frame record over TCP:
//
//	request  := header(kind=op, meta=nameLen(2) name [traceID(8) parentSpanID(8)]) no payload
//	response := header(kind=status, no meta) payload
//
// That is the form of get, delete, stat and verify; put, range and chunk
// requests name a list of blocks (below). The header's own CRC32C covers
// the op, the names, the arguments and the lengths, so the server refuses
// a damaged request before acting on any of it, and the client refuses a
// damaged response before sizing a buffer from it. The payload CRC32C
// catches payload damage at the receiver instead of feeding it into a
// decode.
//
// At rest a server keeps one CRC32C per granule of each block, computed as
// the put landed. A granule is the code's unit, len(block) /
// UnitsPerBlock(), when the server has a code and the block divides into
// units, and the whole block otherwise; every range a Store asks for is
// unit-aligned. Who verifies what:
//
//   - get, stat and verify check the whole block, granule by granule,
//     before they use it, and answer statusCorrupt when it has rotted; a
//     get's payload CRC is its granules' combine.
//   - chunk checks the whole block the same way only when the block has no
//     stripe record (below). A block with one is not read before the chunk
//     is computed from it: its record rides with the chunk, and the client
//     that repairs checks the block it rebuilds against the record's entry
//     for the lost block, asking each helper to verify with opVerify only
//     when that fails. A chunk — a linear combination, which no granule CRC
//     covers — is checksummed as computed either way.
//   - range sends the range's CRC32C, combined from the stored granule
//     CRCs (frame.Combine), and reads no block content to checksum it —
//     except a granule the range covers only in part, which it verifies
//     whole first (statusCorrupt on a failure) and checksums the covered
//     part of: at most two granules per name.
//   - the reader verifies every byte it lands against its name's CRC in
//     the same pass that reads it. A name whose bytes do not match is its
//     own ErrCorrupt verdict; the other names land, and the connection
//     stays in sync. The reader then sends an opVerify for that name, so
//     the server, which can tell rot at rest from damage on the wire,
//     counts the rot as a corrupt serve where it lives.
//
// statusCorrupt, or a reader's ErrCorrupt, is the signal the client's read
// path uses to exclude the block and route it into scrub/repair.
//
// A put stores one or more blocks of one size — a write sends each server
// its block of every stripe of a batch in one exchange:
//
//	put request := header(kind=opPut, meta=count(2) {nameLen(2) name}×count w(1) {crc(4)×w}×count [trace]) block×count
//	response    := header(kind=statusOK, no meta) no payload
//
// The payload is the blocks back to back, each len/count bytes, and the
// frame's payload CRC covers them all: there is no CRC per name. The
// server reads each block into its own exact-size buffer, checksums it as
// it lands, granule by granule, checks the frame CRC by combining the
// granules' CRCs (frame.Combine) and keeps them as the blocks' at-rest
// checksums. The meta may also give each block its stripe record: the
// whole-block CRC32C of each of the w = n blocks of its stripe, which a
// write has from its encode, or w = 0 for none (a 256-block code's blocks
// go without: w is one byte). The server keeps each
// block's record as sent, beside its granule CRCs, and sends it with the
// block's chunks; a w·count that runs past the meta is refused before
// anything is sized from it. A put is all-or-nothing: a payload whose
// length is not a multiple of count closes the connection before anything
// is allocated, one that fails its CRC closes it with nothing stored, and
// otherwise every block is stored under one lock before the answer. So a
// client that retries a put whose answer it never saw stores the same
// blocks again.
//
// A range or chunk request names one or more blocks that share its
// arguments — a read asks each source for the same range of a whole batch
// of stripes' blocks in one exchange, and a repair pass asks each helper
// for its chunks of a whole batch of stripes the same way — so its meta
// starts with a name count:
//
//	range request  := header(kind=opRange, meta=count(2) {nameLen(2) name}×count offset(4) length(4) [trace]) no payload
//	chunk request  := header(kind=opChunk, meta=count(2) {nameLen(2) name}×count helper(4) failed(4) [trace]) no payload
//	range response := header(kind=statusOK, meta=verdict(1)×count crc(4)×ok) answer×ok
//	chunk response := header(kind=statusOK, meta=verdict(1)×count {crc(4) w(1) rec(4w)}×ok) answer×ok
//
// The response carries one verdict byte per name, in request order:
// statusOK, statusNotFound, statusCorrupt, or statusError — for a range,
// one that falls outside its block; for a chunk, a block whose size
// differs from the first OK block's. The payload is the OK names' answers
// back to back in request order, all of one size (the range's length, or
// the chunk size), so the client knows from the verified header alone
// where each lands; the server sends a range answer as one vectored write
// of slices of the stored blocks, with no copy. After the verdicts the meta
// holds each OK answer's CRC32C, in the same order, and the frame's payload
// CRC is their combine: a payload that fails it while every answer matches
// its own CRC is a protocol violation. In a chunk answer each CRC is
// followed by the block's stripe record — w = n CRCs, when the server
// computed the chunk without verifying the block — or w = 0, when it
// verified it: a block put with no record, or one of another width. A
// verdict concerns one block: the exchange itself succeeded. The server refuses a put, range or
// chunk request with no names, a count that runs past the meta, or an
// empty or over-long name by closing the connection, before it sizes
// anything from the count; it answers statusError, with no verdicts, when
// the request names more blocks than an answer's meta has room for a
// verdict and a CRC each — and, in a chunk answer, a record of n CRCs
// each: count·(6+4n) bytes — or the blocks it found could cost more than
// maxPayload — each the larger of its size, which may be checksummed, and
// its answer; checked before it checksums any of them — and, for a chunk
// request, when it has no code or the chunk computation fails.
//
// Operations: put (one or more blocks of one size, all or nothing), get,
// range (one range of one or more blocks, for parallel reads of data
// prefixes), chunk (helper-side repair computation for one or more
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
// put, range and chunk ops, the three a batch shares an exchange for.
func multiName(op byte) bool { return op == opPut || answersNames(op) }

// answersNames reports whether an op's answer carries a verdict per name:
// the range and chunk ops. They are also the ops with arguments.
func answersNames(op byte) bool { return op == opRange || op == opChunk }

// nargs is the number of uint32 arguments an op's meta carries.
func nargs(op byte) int {
	if answersNames(op) {
		return 2
	}
	return 0
}

// appendMeta encodes a request's meta: the length-prefixed names (one for
// get, delete, stat and verify; a put's, range's or chunk's start with
// their count), the op's arguments, a put's stripe records (one per name,
// all of one width, or nil for none) and, when traceID is nonzero, the
// trace context.
func appendMeta(dst []byte, op byte, names []string, args []uint32, recs [][]uint32, traceID, parent uint64) []byte {
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
	if op == opPut {
		w := 0
		if len(recs) > 0 {
			w = len(recs[0])
		}
		dst = append(dst, byte(w))
		for _, rec := range recs {
			for _, c := range rec {
				dst = binary.BigEndian.AppendUint32(dst, c)
			}
		}
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
	name          []byte // the only name, or a put, range or chunk request's first
	names         []byte // a put, range or chunk request's validated name list; walk it with nextName
	count         int    // how many names that list holds
	args          [2]uint32
	w             int    // a put's stripe record width: CRCs per name
	recs          []byte // a put's stripe records, 4·w bytes per name in name order
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

// parseMeta decodes the meta of a verified request header. A put, range or
// chunk request's name list is walked name by name against the meta's own
// length, and a put's stripe records are measured against what is left of
// it, so a count or a record width that promises more than the meta holds
// is refused without anything being sized from it.
func parseMeta(op byte, meta []byte) (m reqMeta, err error) {
	rest := meta
	if multiName(op) {
		if len(meta) < 2 {
			return m, fmt.Errorf("blockserver: %d-byte %s request meta", len(meta), opNames[op])
		}
		list := meta[2:]
		if m.count = int(binary.BigEndian.Uint16(meta)); m.count == 0 {
			return m, fmt.Errorf("blockserver: %s request names no block", opNames[op])
		}
		rest = list
		for range m.count {
			if _, rest, err = cutName(rest); err != nil {
				return m, err
			}
		}
		m.names = list[:len(list)-len(rest)]
		m.name, _ = nextName(m.names)
	} else if m.name, rest, err = cutName(meta); err != nil {
		return m, err
	}
	if op == opPut {
		if len(rest) == 0 {
			return m, fmt.Errorf("blockserver: put request meta has no record width")
		}
		m.w = int(rest[0])
		n := 4 * m.w * m.count
		if n > len(rest)-1 {
			return m, fmt.Errorf("blockserver: %d names' %d-CRC records run past the meta", m.count, m.w)
		}
		m.recs, rest = rest[1:1+n], rest[1+n:]
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

// cutEntry splits one OK name's entry off the front of what follows the
// verdicts in a range or chunk answer's meta: its answer's CRC32C and, in a
// chunk answer, its block's stripe record, 4w bytes (none when w = 0). ok
// is false when the meta is too short for it.
func cutEntry(op byte, meta []byte) (crc uint32, rec, rest []byte, ok bool) {
	if len(meta) < 4 {
		return 0, nil, nil, false
	}
	crc, rest = binary.BigEndian.Uint32(meta), meta[4:]
	if op == opChunk {
		if len(rest) == 0 || len(rest)-1 < 4*int(rest[0]) {
			return 0, nil, nil, false
		}
		n := 4 * int(rest[0])
		rec, rest = rest[1:1+n], rest[1+n:]
	}
	return crc, rec, rest, true
}

// entriesFit reports whether meta, what follows the verdicts in a range or
// chunk answer's meta, is exactly ok entries.
func entriesFit(op byte, meta []byte, ok int) bool {
	for range ok {
		var fit bool
		if _, _, meta, fit = cutEntry(op, meta); !fit {
			return false
		}
	}
	return len(meta) == 0
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
