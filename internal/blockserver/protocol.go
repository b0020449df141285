// Package blockserver implements a minimal TCP block store — the
// deployable analog of the paper's Hadoop datanode integration. Each
// server holds named blocks and, crucially, computes Carousel repair
// chunks *server-side*: during a reconstruction only the chunk
// (blockSize/alpha bytes) crosses the network, exactly the paper's optimal
// repair traffic. The newcomer — the server that is to hold a lost block —
// fetches those chunks and rebuilds the block itself, so the block crosses
// no socket at all.
//
// Every request and response is one internal/frame record over TCP:
//
//	request  := header(kind=op, meta=nameLen(2) name [traceID(8) parentSpanID(8)]) no payload
//	response := header(kind=status, no meta) payload
//
// That is the form of delete and verify; put, range and chunk requests
// name a list of blocks, and a rebuild a batch of stripes (below). The
// header's own CRC32C covers the op, the names, the arguments and the
// lengths, so the server refuses a damaged request before acting on any of
// it, and the client refuses a damaged response before sizing a buffer
// from it. The payload CRC32C catches payload damage at the receiver
// instead of feeding it into a decode.
//
// At rest a server keeps one CRC32C per granule of each block, computed as
// the put landed. A granule is the code's unit, len(block) /
// UnitsPerBlock(), when the server has a code and the block divides into
// units, and the whole block otherwise; every range a Store asks for is
// unit-aligned. Who verifies what:
//
//   - verify checks the whole block, granule by granule, and answers
//     statusCorrupt when it has rotted.
//   - chunk checks the whole block the same way only when the block has no
//     stripe record (below). A block with one is not read before the chunk
//     is computed from it: its record rides with the chunk, and the newcomer
//     that rebuilds (below) checks the block it rebuilds — the combine of
//     the granule CRCs it computes as it decodes, which the block is stored
//     under — against the record's entry for the lost block, asking each
//     helper to verify with opVerify only when that fails. A chunk — a
//     linear combination, which no granule CRC covers — is checksummed as
//     computed either way.
//   - range sends the range's CRC32C, combined from the stored granule
//     CRCs (frame.Combine), and reads no block content to checksum it —
//     except a granule the range covers only in part, which it verifies
//     whole first (statusCorrupt on a failure) and checksums the covered
//     part of: at most two granules per name. A range of length 0 reads
//     to its block's end: the first OK block's remainder is the answer's
//     length, and a later name whose remainder differs is statusError, as
//     a chunk's block of another size is. A whole-block read is one at
//     offset 0, so the server checksums none of the block for it.
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
// one that falls outside its block or, at length 0, whose remainder
// differs from the first OK block's; for a chunk, a block whose size
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
// A rebuild asks a newcomer to rebuild its block of each of a batch of one
// file's stripes itself, from chunks it fetches from the stripes' helpers,
// and to store it — the whole of a repair batch in one exchange, which
// carries no block:
//
//	rebuild request  := header(kind=opRebuild, meta=fileLen(2) file count(2) stripe(4)×count failed(2) blockSize(4) n(2) {addrLen(1) addr}×n settings budget(4) [trace]) no payload
//	rebuild response := header(kind=statusOK, meta={verdict(1) traffic(4) textLen(2)}×count {chunks(4)}×n) text×count
//
// The addresses are the stripes' n servers, block i on the i-th, and are
// the only ones the newcomer dials. The settings are the coordinator's
// hedge delay and client options — dial and IO timeouts, retry attempts,
// base and max backoff, in µs, and multiplier and jitter, in ‰ — so the
// options a Store is built with govern its repairs at the newcomer; the
// budget (µs) is what is left of the exchange's deadline, and the newcomer
// answers every stripe within it, less a margin. The newcomer runs the
// batch on a Store over a pool of its own, kept for the next request with
// the same addresses, block size and settings. It decodes each block into
// an exact-size buffer, checksums it granule by granule in the same pass,
// and stores it through the commit a put stores with, its stripe record's
// entry for the block set to the block's CRC. The answer gives each stripe
// a verdict — statusOK, or the class of its failure (rebuildClasses) — the
// bytes of its winning chunks and, for a failure, the text of its root
// cause, in the payload; and each helper, by block index, its winning
// chunks. A stripe count or an address list that runs past the meta, or a
// failed index not below n, is refused before anything is sized from it,
// and so is an n other than the server code's N: the connection closes.
// The server answers statusError, having dialed nobody, when it has no
// code, is not serving — never started, or closing — or the answer would
// overflow a meta.
//
// Operations: put (one or more blocks of one size, all or nothing), range
// (one range of one or more blocks, for parallel reads of data prefixes,
// or to their end for whole-block reads), chunk (helper-side repair
// computation for one or more blocks), delete, verify (server-side
// checksum audit of one block), rebuild (a newcomer's repair of a batch of
// its own blocks). Op bytes 2 and 6 are unknown ops: they were a
// whole-block get and a stat, which an old client may still send.
//
// A traced request ends its meta with the client's trace ID and span ID,
// under which the server parents its spans; an untraced one carries neither.
package blockserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"carousel/internal/bufpool"
	"carousel/internal/frame"
)

// Operation codes. Bytes 2 and 6 are retired (see the package comment).
const (
	opPut     byte = 1
	opRange   byte = 3
	opChunk   byte = 4
	opDelete  byte = 5
	opVerify  byte = 7
	opRebuild byte = 8
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
// delete and verify; a put's, range's or chunk's start with their count),
// the op's arguments, a put's stripe records (one per name, all of one
// width, or nil for none) and, when traceID is nonzero, the trace context.
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
	name          []byte // the only name, a put, range or chunk request's first, or a rebuild's file
	names         []byte // a put, range or chunk request's validated name list; walk it with nextName
	count         int    // how many names that list holds
	args          [2]uint32
	w             int          // a put's stripe record width: CRCs per name
	recs          []byte       // a put's stripe records, 4·w bytes per name in name order
	rb            *rebuildMeta // a rebuild request, decoded
	trace, parent uint64       // zero for an untraced request
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
	if op == opRebuild {
		if m.rb, rest, err = parseRebuild(meta); err != nil {
			return m, err
		}
		m.name = []byte(m.rb.req.File)
	}
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
	} else if op != opRebuild {
		if m.name, rest, err = cutName(meta); err != nil {
			return m, err
		}
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

// RebuildRequest asks a newcomer, in one opRebuild exchange, to rebuild
// its block Failed of each of a file's Stripes from d helper chunks and
// to store it: one batch of a repair pass. Addrs are the stripes' n
// servers, block i on Addrs[i] and the newcomer at Addrs[Failed], and they
// are the only addresses the newcomer dials. Hedge and Client are how the
// newcomer runs its helper exchanges — the coordinator's own settings, so
// the options a Store is built with govern its repairs wherever they run.
type RebuildRequest struct {
	File      string
	Stripes   []int
	Failed    int
	BlockSize int
	Addrs     []string
	Hedge     time.Duration
	Client    Options
}

// RebuildResult is a newcomer's answer to a RebuildRequest: each stripe's
// failure (nil when its block is stored) and the bytes of its winning
// helper chunks, in request order, and how many winning chunks each helper
// served, by block index.
type RebuildResult struct {
	Errs    []error
	Traffic []int
	Chunks  []int64
}

// check refuses a request its meta cannot carry.
func (req *RebuildRequest) check() error {
	switch n := len(req.Addrs); {
	case len(req.File) == 0 || len(req.File) > maxNameLen:
		return fmt.Errorf("blockserver: invalid name length %d", len(req.File))
	case len(req.Stripes) == 0 || len(req.Stripes) > math.MaxUint16:
		return fmt.Errorf("blockserver: a rebuild of %d stripes", len(req.Stripes))
	case n == 0 || n > math.MaxUint16 || req.Failed < 0 || req.Failed >= n:
		return fmt.Errorf("blockserver: a rebuild of block %d of %d", req.Failed, n)
	case req.BlockSize <= 0 || req.BlockSize > maxPayload:
		return fmt.Errorf("blockserver: a rebuild of %d-byte blocks", req.BlockSize)
	}
	for _, st := range req.Stripes {
		if st < 0 || st > math.MaxUint32 {
			return fmt.Errorf("blockserver: a rebuild of stripe %d", st)
		}
	}
	for _, a := range req.Addrs {
		if len(a) == 0 || len(a) > math.MaxUint8 {
			return fmt.Errorf("blockserver: invalid address length %d", len(a))
		}
	}
	return nil
}

// rebuildSettingsLen is the fixed tail of a rebuild meta before its
// budget: the hedge delay, dial and IO timeouts (µs, 4 bytes each), the
// retry attempts (1), base and max backoff (µs, 4 each), multiplier and
// jitter (‰, 2 each).
const rebuildSettingsLen = 3*4 + 1 + 2*4 + 2*2

// appendRebuild encodes a rebuild request's meta:
//
//	fileLen(2) file count(2) stripe(4)×count failed(2) blockSize(4) n(2) {addrLen(1) addr}×n settings budget(4) [trace]
//
// budget is how long the newcomer has (µs): the exchange's deadline.
func appendRebuild(dst []byte, req *RebuildRequest, budget time.Duration, traceID, parent uint64) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.File)))
	dst = append(dst, req.File...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Stripes)))
	for _, st := range req.Stripes {
		dst = binary.BigEndian.AppendUint32(dst, uint32(st))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(req.Failed))
	dst = binary.BigEndian.AppendUint32(dst, uint32(req.BlockSize))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Addrs)))
	for _, a := range req.Addrs {
		dst = append(append(dst, byte(len(a))), a...)
	}
	o := req.Client
	dst = appendMicros(appendMicros(appendMicros(dst, req.Hedge), o.DialTimeout), o.IOTimeout)
	dst = append(dst, byte(min(max(o.Retry.Attempts, 0), math.MaxUint8)))
	dst = appendMicros(appendMicros(dst, o.Retry.Base), o.Retry.Max)
	dst = appendMilli(appendMilli(dst, o.Retry.Multiplier), o.Retry.Jitter)
	dst = appendMicros(dst, budget)
	if traceID != 0 {
		dst = binary.BigEndian.AppendUint64(dst, traceID)
		dst = binary.BigEndian.AppendUint64(dst, parent)
	}
	return dst
}

// appendMicros appends a duration in whole microseconds, saturating at
// 2³²−1 (71 minutes); a negative one is 0.
func appendMicros(dst []byte, d time.Duration) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(min(max(d.Microseconds(), 0), math.MaxUint32)))
}

// appendMilli appends a ratio in thousandths, saturating at 65.535.
func appendMilli(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint16(dst, uint16(min(max(f*1000, 0), math.MaxUint16)))
}

// rebuildMeta is a decoded rebuild request: the request, the budget the
// newcomer has, and its engine key — the meta from the block size through
// the settings, everything that says how to rebuild rather than what.
type rebuildMeta struct {
	req    RebuildRequest
	budget time.Duration
	key    string
}

// parseRebuild decodes a rebuild request's meta and returns what follows
// its budget. The stripe count and the address count are measured
// against the meta, and the failed index against the address count,
// before anything is sized from them.
func parseRebuild(meta []byte) (*rebuildMeta, []byte, error) {
	file, rest, err := cutName(meta)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < 2 {
		return nil, nil, fmt.Errorf("blockserver: rebuild meta ends before its stripe count")
	}
	count := int(binary.BigEndian.Uint16(rest))
	if rest = rest[2:]; count == 0 || 4*count+2+4+2 > len(rest) {
		return nil, nil, fmt.Errorf("blockserver: %d stripes run past a rebuild meta", count)
	}
	stripes, rest := rest[:4*count], rest[4*count:]
	failed, key := int(binary.BigEndian.Uint16(rest)), rest[2:]
	blockSize, n := int(binary.BigEndian.Uint32(rest[2:])), int(binary.BigEndian.Uint16(rest[6:]))
	if failed >= n || blockSize == 0 || blockSize > maxPayload {
		return nil, nil, fmt.Errorf("blockserver: a rebuild of block %d of %d, %d bytes", failed, n, blockSize)
	}
	addrs := rest[8:]
	rest = addrs
	for range n {
		if len(rest) == 0 || rest[0] == 0 || int(rest[0]) >= len(rest) {
			return nil, nil, fmt.Errorf("blockserver: %d addresses run past a rebuild meta", n)
		}
		rest = rest[1+int(rest[0]):]
	}
	if len(rest) < rebuildSettingsLen+4 {
		return nil, nil, fmt.Errorf("blockserver: rebuild meta ends before its settings")
	}
	rb := &rebuildMeta{key: string(key[:len(key)-len(rest)+rebuildSettingsLen])}
	rb.req = RebuildRequest{File: string(file), Stripes: make([]int, count), Failed: failed, BlockSize: blockSize, Addrs: make([]string, n)}
	for i := range rb.req.Stripes {
		rb.req.Stripes[i] = int(binary.BigEndian.Uint32(stripes[4*i:]))
	}
	for i := range rb.req.Addrs {
		rb.req.Addrs[i], addrs = string(addrs[1:1+addrs[0]]), addrs[1+addrs[0]:]
	}
	micros := func(b []byte) time.Duration { return time.Duration(binary.BigEndian.Uint32(b)) * time.Microsecond }
	milli := func(b []byte) float64 { return float64(binary.BigEndian.Uint16(b)) / 1000 }
	rb.req.Hedge = micros(rest)
	o := &rb.req.Client
	o.DialTimeout, o.IOTimeout, o.Retry.Attempts = micros(rest[4:]), micros(rest[8:]), int(rest[12])
	o.Retry.Base, o.Retry.Max = micros(rest[13:]), micros(rest[17:])
	o.Retry.Multiplier, o.Retry.Jitter = milli(rest[21:]), milli(rest[23:])
	rb.budget = micros(rest[rebuildSettingsLen:])
	return rb, rest[rebuildSettingsLen+4:], nil
}

// rebuildClasses are the failures a rebuild answer tells apart, verdicts
// 1 to len in order after statusOK; any other failure is verdict len+1.
// The coordinator rebuilds each failed stripe's error around its class,
// so errors.Is finds the same sentinel on both sides of the hop.
var rebuildClasses = [...]error{ErrTooFewSurvivors, ErrTimeout, context.Canceled, ErrNotFound, ErrCorrupt, ErrRemote}

// maxFailureText bounds the failure text a rebuild answer carries for a
// stripe.
const maxFailureText = 1024

// rebuildVerdict is a stripe outcome's verdict byte in a rebuild answer.
func rebuildVerdict(err error) byte {
	if err == nil {
		return statusOK
	}
	for i, c := range rebuildClasses {
		if errors.Is(err, c) {
			return byte(i + 1)
		}
	}
	return byte(len(rebuildClasses) + 1)
}

// stripeFailure is a stripe's failure as its newcomer reported it: the
// text of its root cause and the class errors.Is finds in it.
type stripeFailure struct {
	text  string
	class error
}

func (e *stripeFailure) Error() string { return e.text }
func (e *stripeFailure) Unwrap() error { return e.class }

// appendRebuildAnswer encodes a newcomer's answer to a rebuild of count
// stripes: the meta, and the payload of their failure texts back to back.
//
//	rebuild response := header(kind=statusOK, meta={verdict(1) traffic(4) textLen(2)}×count {chunks(4)}×n) text×count
func appendRebuildAnswer(meta, texts []byte, traffic []int, errs []error, chunks []int64) ([]byte, []byte) {
	for i, err := range errs {
		var text string
		if err != nil {
			text = err.Error()
			text = text[:min(len(text), maxFailureText)]
		}
		meta = append(meta, rebuildVerdict(err))
		meta = binary.BigEndian.AppendUint32(meta, uint32(traffic[i]))
		meta = binary.BigEndian.AppendUint16(meta, uint16(len(text)))
		texts = append(texts, text...)
	}
	for _, c := range chunks {
		meta = binary.BigEndian.AppendUint32(meta, uint32(c))
	}
	return meta, texts
}

// parseRebuildAnswer measures the meta of a rebuild answer for count
// stripes and n helpers: a verdict, traffic and text length per stripe,
// only a failure with a text, and a chunk count per helper. It returns the
// payload the texts take, which the caller checks against the header
// before it reads any of it.
func parseRebuildAnswer(meta []byte, count, n int) (textLen int, err error) {
	if len(meta) != 7*count+4*n {
		return 0, fmt.Errorf("blockserver: %d-byte rebuild answer meta for %d stripes and %d helpers", len(meta), count, n)
	}
	for i := range count {
		e := meta[7*i:]
		if e[0] > byte(len(rebuildClasses)+1) {
			return 0, fmt.Errorf("blockserver: unknown rebuild verdict %d", e[0])
		}
		l := int(binary.BigEndian.Uint16(e[5:]))
		if (e[0] == statusOK) != (l == 0) || l > maxFailureText {
			return 0, fmt.Errorf("blockserver: rebuild verdict %d with a %d-byte failure", e[0], l)
		}
		textLen += l
	}
	return textLen, nil
}

// rebuildResult fills res from a rebuild answer parseRebuildAnswer has
// measured and its failure texts.
func rebuildResult(meta, texts []byte, res *RebuildResult) {
	for i := range res.Errs {
		e := meta[7*i:]
		res.Traffic[i] = int(binary.BigEndian.Uint32(e[1:]))
		if e[0] == statusOK {
			res.Errs[i] = nil
			continue
		}
		l := int(binary.BigEndian.Uint16(e[5:]))
		f := &stripeFailure{text: string(texts[:l])}
		if int(e[0]) <= len(rebuildClasses) {
			f.class = rebuildClasses[e[0]-1]
		}
		res.Errs[i], texts = f, texts[l:]
	}
	for i := range res.Chunks {
		res.Chunks[i] = int64(binary.BigEndian.Uint32(meta[7*len(res.Errs)+4*i:]))
	}
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

// Recycle returns an answer obtained from Get or Chunk to the shared
// buffer pool once the caller has copied or consumed the bytes. Recycling
// is optional (a forgotten buffer is simply garbage collected) but keeps
// the steady-state read path allocation-free. The caller must not touch
// the slice afterwards.
func Recycle(b []byte) {
	bufpool.Put(b)
}
