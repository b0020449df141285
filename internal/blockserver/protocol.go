// Package blockserver implements a minimal TCP block store — the
// deployable analog of the paper's Hadoop datanode integration. Each
// server holds named blocks and computes Carousel repair chunks
// server-side, so during a reconstruction only the chunk (blockSize/alpha
// bytes) crosses the network — the paper's optimal repair traffic — and
// the newcomer, the server that is to hold a lost block, fetches those
// chunks and rebuilds the block itself, so the block crosses no socket.
//
// Every request and response is one internal/frame record over TCP, and
// every request but a rebuild (below) names a list of blocks in one
// grammar:
//
//	put     := header(kind=opPut, meta=names w(1) {crc(4)×w}×count [trace]) block×count
//	range   := header(kind=opRange, meta=names offset(4) length(4) [trace]) no payload
//	chunk   := header(kind=opChunk, meta=names helper(4) failed(4) [trace]) no payload
//	verify  := header(kind=opVerify, meta=names [trace]) no payload
//	delete  := header(kind=opDelete, meta=names [trace]) no payload
//	names   := count(2) {nameLen(2) name}×count
//	trace   := traceID(8) parentSpanID(8)
//
// and each is answered:
//
//	put, delete := header(kind=statusOK, no meta) no payload
//	range       := header(kind=statusOK, meta=verdict(1)×count crc(4)×ok) answer×ok
//	chunk       := header(kind=statusOK, meta=verdict(1)×count {crc(4) w(1) rec(4w)}×ok) answer×ok
//	verify      := header(kind=statusOK, meta=verdict(1)×count {w(1) rec(4w)}×ok) no payload
//	refusal     := header(kind=statusError, no meta) message
//
// The header's own CRC32C covers the op, the names, the arguments and the
// lengths, so the server refuses a damaged request before acting on any of
// it, and the client refuses a damaged response before sizing a buffer
// from it; the payload CRC32C catches payload damage at the receiver
// instead of feeding it into a decode. A traced request's spans join the
// client's trace. A request whose names do not parse — no names, a count
// that runs past the meta, an empty or over-long name, or a name in the
// one-name form delete and verify once had, whose first two bytes, read as
// a length, pass maxNameLen for any printable name — closes the connection
// before anything is sized from it. An unknown op's meta is not read: it
// is refused, whatever the meta holds. Op bytes 2 and 6 are unknown ops:
// they were a whole-block get and a stat, which an old client may still
// send.
//
// A put stores blocks of one size, back to back in the payload, all or
// nothing — a write sends each server its block of every stripe of a batch
// in one exchange. The server reads each block into an exact-size buffer,
// checksums it granule by granule as it lands, checks the frame CRC by
// combining the granules' CRCs (frame.Combine) and keeps them as the
// block's at-rest checksums. The meta may give each block its stripe
// record: the whole-block CRC32C of each of the w = n blocks of its
// stripe, which a write has from its encode, or w = 0 for none (a
// 256-block code's blocks go without: w is one byte). A payload that does
// not split into count blocks closes the connection before anything is
// allocated, one that fails its CRC closes it with nothing stored, and
// otherwise every block is stored under one lock before the answer, so a
// retried put stores the same blocks again. A delete removes every block
// it names under one lock.
//
// Range, chunk and verify answer a verdict per name, in request order —
// statusOK, statusNotFound, statusCorrupt, or statusError: for a range,
// one outside its block or, at length 0, whose remainder differs from the
// first OK block's; for a chunk, a block whose size differs from the first
// OK block's — and, after the verdicts, an entry per OK name: the CRC32C
// of a range's or chunk's answer, and in a chunk or verify answer the
// block's stripe record, w = n CRCs when it has one of the server's code's
// width (and, for a chunk, the server computed the chunk without verifying
// the block), else w = 0. The payload is the OK answers back to back, all
// of one size (a verify has none), so the client knows from the verified
// header alone where each lands, and the frame's payload CRC is the
// combine of theirs; a payload that fails it while every answer matches
// its own CRC is a protocol violation. A read asks each source for one
// range of a batch of stripes' blocks in one exchange (sent as one
// vectored write of slices of the stored blocks, with no copy), a repair
// each helper for its chunks of a batch, and a scrub each server for the
// verdicts of its blocks of a batch. The server refuses a request that
// names more blocks than an answer meta has room for a verdict and an
// entry each — count·5 bytes for a range, count·(2+4n) for a verify,
// count·(6+4n) for a chunk — or whose blocks could cost more than
// maxPayload to checksum or send, before it checksums any; and a chunk
// request whose computation fails.
//
// At rest a server keeps one CRC32C per granule of each block: the code's
// unit, len(block)/UnitsPerBlock(), when the block divides into units, and
// the whole block otherwise; every range a Store asks for is unit-aligned.
// Who verifies what:
//
//   - verify checks each named block whole, granule by granule.
//   - range sends the range's CRC combined from the granule CRCs and reads
//     no content to checksum it, except a granule it covers only in part,
//     which it verifies whole first: at most two per name. A range of
//     length 0 reads to its block's end, so a whole-block read costs the
//     server no checksum.
//   - chunk verifies the whole block first only when it has no record. A
//     chunk is checksummed as computed; the record that rides with it lets
//     the newcomer check the block it rebuilds against the record's entry,
//     and ask its helpers to verify only when that fails.
//   - the reader verifies every byte it lands against its name's CRC in
//     the pass that reads it. A mismatch is that name's ErrCorrupt; the
//     other names land, the connection stays in sync, and the reader sends
//     one verify for every name an exchange landed rotten, so the server,
//     which can tell rot at rest from damage on the wire, counts the rot
//     as a corrupt serve where it lives.
//
// statusCorrupt, or a reader's ErrCorrupt, is the signal the read path uses
// to exclude the block and route it into scrub/repair.
//
// A rebuild asks a newcomer to rebuild, from chunks it fetches itself, and
// store its block of each of a batch of one file's stripes — a whole
// repair batch in one exchange, which carries no block:
//
//	rebuild request  := header(kind=opRebuild, meta=fileLen(2) file count(2) stripe(4)×count failed(2) blockSize(4) n(2) {addrLen(1) addr}×n hedge(4) budget(4) [trace]) no payload
//	rebuild response := header(kind=statusOK, meta={verdict(1) traffic(4) textLen(2)}×count {chunks(4)}×n) text×count
//
// The addresses are the stripes' n servers, block i on the i-th, and the
// only ones the newcomer dials. The hedge (µs) is the coordinator's hedge
// delay, which bounds the newcomer's wait for straggling helpers;
// the budget (µs) is what is left of the exchange's deadline, which the
// newcomer answers within. It runs the batch on a Store over the one pool
// its Server keeps for its life, whose client options — dial and IO
// timeouts, retry policy — its helper exchanges run under, and stores
// each block through the commit a put stores with, its record's entry for
// the block set to the block's CRC. The answer gives each stripe a verdict
// — statusOK, or its failure's class (rebuildClasses) — its winning chunk
// bytes and a failure's root-cause text, in the payload, and each helper
// its winning chunks. A stripe or address list that runs past the meta, a
// failed index not below n, or an n other than the server code's closes
// the connection before anything is sized from it. A server never
// started, or whose answer would overflow a meta, refuses the rebuild
// having dialed nobody; a closing one closes the connection.
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

// answersNames reports whether an op's answer carries a verdict per name:
// the range, chunk and verify ops.
func answersNames(op byte) bool { return op == opRange || op == opChunk || op == opVerify }

// nargs is the number of uint32 arguments an op's meta carries: two for
// a range or a chunk, none for any other op.
func nargs(op byte) int {
	if op == opRange || op == opChunk {
		return 2
	}
	return 0
}

// nameList is a request's block names as they go on the wire,
// {nameLen(2) name}×count, with their count: add and addBlock append a
// name in place, and refuse one that is empty or over maxNameLen — err is
// the first refusal, which fails the request before anything is sent. The
// lists a client or a Store keeps keep their capacity, so a warm list
// allocates nothing.
type nameList struct {
	wire  []byte
	count int
	err   error
}

// add appends name to the list.
func (l *nameList) add(name string) {
	l.wire = append(binary.BigEndian.AppendUint16(l.wire, uint16(len(name))), name...)
	l.added(len(name))
}

// addBlock appends the name of block idx of a stripe of file (BlockName),
// built in place.
func (l *nameList) addBlock(file string, stripe, idx int) {
	at := len(l.wire)
	l.wire = appendBlockName(append(l.wire, 0, 0), file, stripe, idx)
	n := len(l.wire) - at - 2
	binary.BigEndian.PutUint16(l.wire[at:], uint16(n))
	l.added(n)
}

// added counts a name of n bytes just appended, refusing it if it is empty
// or over maxNameLen.
func (l *nameList) added(n int) {
	if l.count++; (n == 0 || n > maxNameLen) && l.err == nil {
		l.err = fmt.Errorf("blockserver: invalid name length %d", n)
	}
}

// at returns the i-th name of the list.
func (l *nameList) at(i int) (name []byte) {
	list := l.wire
	for range i + 1 {
		name, list = nextName(list)
	}
	return name
}

// reset empties the list, keeping its capacity.
func (l *nameList) reset() { *l = nameList{wire: l.wire[:0]} }

// appendMeta encodes a request's meta: the count of names and the list as
// it is, the op's arguments, a put's stripe records (one per name, all of
// one width, or nil for none) and, when traceID is nonzero, the trace
// context.
func appendMeta(dst []byte, op byte, names nameList, args []uint32, recs [][]uint32, traceID, parent uint64) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(names.count))
	dst = append(dst, names.wire...)
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
	name          []byte // a request's first name, or a rebuild's file
	names         []byte // a request's validated name list; walk it with nextName
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

// parseMeta decodes the meta of a verified request header. The name list
// is walked name by name against the meta's own length, and a put's stripe
// records are measured against what is left of it, so a count or a record
// width that promises more than the meta holds is refused without anything
// being sized from it. An unknown op's meta is not read.
func parseMeta(op byte, meta []byte) (m reqMeta, err error) {
	rest := meta
	switch {
	case !known(op):
		return m, nil
	case op == opRebuild:
		if m.rb, rest, err = parseRebuild(meta); err != nil {
			return m, err
		}
		m.name = []byte(m.rb.req.File)
	default:
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

// rebuildRequest asks a newcomer, in one opRebuild exchange, to rebuild
// its block Failed of each of a file's Stripes from d helper chunks and
// to store it: one batch of a repair pass. Addrs are the stripes' n
// servers, block i on Addrs[i] and the newcomer at Addrs[Failed], and they
// are the only addresses the newcomer dials. Hedge is the coordinator's
// hedge delay, which the newcomer's helper exchanges run under; how they
// dial and retry is the newcomer's own pool's business.
type rebuildRequest struct {
	File      string
	Stripes   []int
	Failed    int
	BlockSize int
	Addrs     []string
	Hedge     time.Duration
}

// rebuildResult is a newcomer's answer to a rebuildRequest: each stripe's
// failure (nil when its block is stored) and the bytes of its winning
// helper chunks, in request order, and how many winning chunks each helper
// served, by block index.
type rebuildResult struct {
	Errs    []error
	Traffic []int
	Chunks  []int64
}

// check refuses a request its meta cannot carry.
func (req *rebuildRequest) check() error {
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
// budget: the hedge delay (µs).
const rebuildSettingsLen = 4

// appendRebuild encodes a rebuild request's meta:
//
//	fileLen(2) file count(2) stripe(4)×count failed(2) blockSize(4) n(2) {addrLen(1) addr}×n hedge(4) budget(4) [trace]
//
// budget is how long the newcomer has (µs): the exchange's deadline.
func appendRebuild(dst []byte, req *rebuildRequest, budget time.Duration, traceID, parent uint64) []byte {
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
	dst = appendMicros(appendMicros(dst, req.Hedge), budget)
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

// rebuildMeta is a decoded rebuild request: the request and the budget
// the newcomer has. The newcomer builds the Store it runs the request on
// from it, over its own pool (Server.rebuild).
type rebuildMeta struct {
	req    rebuildRequest
	budget time.Duration
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
	failed := int(binary.BigEndian.Uint16(rest))
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
		return nil, nil, fmt.Errorf("blockserver: rebuild meta ends before its hedge and budget")
	}
	rb := &rebuildMeta{req: rebuildRequest{File: string(file), Stripes: make([]int, count), Failed: failed, BlockSize: blockSize, Addrs: make([]string, n)}}
	for i := range rb.req.Stripes {
		rb.req.Stripes[i] = int(binary.BigEndian.Uint32(stripes[4*i:]))
	}
	for i := range rb.req.Addrs {
		rb.req.Addrs[i], addrs = string(addrs[1:1+addrs[0]]), addrs[1+addrs[0]:]
	}
	micros := func(b []byte) time.Duration { return time.Duration(binary.BigEndian.Uint32(b)) * time.Microsecond }
	rb.req.Hedge, rb.budget = micros(rest), micros(rest[rebuildSettingsLen:])
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

// fillRebuildResult fills res from a rebuild answer parseRebuildAnswer has
// measured and its failure texts.
func fillRebuildResult(meta, texts []byte, res *rebuildResult) {
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
// verdicts in an answer's meta: its answer's CRC32C — 0, that of nothing,
// in a verify answer — and its block's stripe record, 4w bytes, in a chunk
// or verify answer. ok is false when the meta is too short for the entry.
func cutEntry(op byte, meta []byte) (crc uint32, rec, rest []byte, ok bool) {
	rest = meta
	if op != opVerify {
		if len(rest) < 4 {
			return 0, nil, nil, false
		}
		crc, rest = binary.BigEndian.Uint32(rest), rest[4:]
	}
	if op != opRange {
		if len(rest) == 0 || len(rest)-1 < 4*int(rest[0]) {
			return 0, nil, nil, false
		}
		n := 4 * int(rest[0])
		rec, rest = rest[1:1+n], rest[1+n:]
	}
	return crc, rec, rest, true
}

// entriesFit reports whether meta, what follows the verdicts in a range,
// chunk or verify answer's meta, is exactly ok entries.
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
