package blockserver

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"carousel/internal/bufpool"
	"carousel/internal/carousel"
	"carousel/internal/frame"
	"carousel/internal/obs"
)

// Server-side metrics, shared by every Server in the process (the registry
// is process-global; per-node separation comes from scraping each node's
// own /metrics endpoint). What one server stores and serves is counted in
// the Server itself: Stats and ObsSummary.
var (
	srvConnsOpen = obs.Default().Gauge("blockserver_server_open_connections")
	// srvRPCWindow is the sliding-window server-side request latency; its
	// _p50/_p99/_p999 gauges on /metrics are what the cluster roll-up and
	// carouselctl top read.
	srvRPCWindow = obs.Default().Window("blockserver_server_rpc_window_ns")
)

// opNames and statusNames label the rpcs_total counters, indexed by opcode
// and status; opcode 0 is never sent, so its slot names unknown opcodes,
// and so do the retired opcodes' empty slots. spanNames names a traced
// request's server span by opcode.
var (
	opNames     = [...]string{"unknown", opPut: "put", opRange: "range", opChunk: "chunk", opDelete: "delete", opVerify: "verify", opRebuild: "rebuild"}
	statusNames = [...]string{"ok", "not_found", "error", "corrupt"}
	spanNames   = [len(opNames)]string{opPut: "server.put", opRange: "server.range", opChunk: "server.chunk", opDelete: "server.delete", opVerify: "server.verify", opRebuild: "server.rebuild"}
)

// known reports whether op is an operation this server serves.
func known(op byte) bool { return op > 0 && int(op) < len(opNames) && opNames[op] != "" }

// srvRPCCounters interns every (op, status) counter once; row 0 doubles
// as the bucket for unknown opcodes, so a bogus op byte off the wire still
// lands on a preallocated counter.
var (
	srvRPCOnce     sync.Once
	srvRPCCounters [len(opNames)][len(statusNames)]*obs.Counter
)

func srvRPCCounter(op, st byte) *obs.Counter {
	srvRPCOnce.Do(func() {
		for o, on := range opNames {
			for s, sn := range statusNames {
				if on != "" {
					srvRPCCounters[o][s] = obs.Default().Counter("blockserver_server_rpcs_total", "op", on, "status", sn)
				}
			}
		}
	})
	if !known(op) {
		op = 0
	}
	return srvRPCCounters[op][st]
}

// connReadBuf sizes the per-connection read buffer: room for any request
// header (frame header, name, arguments, trace context), so one read
// syscall delivers all of it, yet small enough that a block payload — whose
// reads ask for more than this — bypasses the buffer and lands directly in
// its destination.
const connReadBuf = 4 << 10

// connState carries one connection's reusable scratch so a steady-state
// request/response cycle allocates nothing server-side: the request header
// and meta land in the frame reader's scratch, and the response header in
// a buffer that lives as long as the connection.
type connState struct {
	conn net.Conn
	fr   *frame.Reader // every request byte is read through this
	hdr  []byte        // response header scratch
	arr  [][]byte      // gather-list backing for vectored responses, cleared after each
	iov  net.Buffers   // per-reply view into arr, consumed by the write

	answer []byte        // a range, chunk or verify answer's meta: the verdict vector, then the OK names' entries
	pinned []storedBlock // the blocks a range, chunk or verify answer is served from, cleared after it
	parts  [][]byte      // a range answer's slices of those blocks, or the blocks of a put; cleared after it
	stored []storedBlock // the blocks of a put as they are committed, cleared after it
}

// reply records the RPC outcome and sends the response: the frame header
// is built in the connection scratch and flushed together with the payload
// in one vectored write (writev on TCP), so a block-sized response leaves
// as a single gather list with no copy and no small-header segment. Every
// handle arm funnels through here or send, so the op/status counter and
// the server's tx byte count cover all served requests.
func (s *Server) reply(cs *connState, op, st byte, payload []byte) error {
	return s.send(cs, op, frame.Header{Kind: st, Len: len(payload), CRC: Checksum(payload)}, payload)
}

// send is reply for a header the caller has filled in: a range, chunk or
// verify answer, whose verdicts and entries ride in the meta, or a rebuild
// answer.
// The payload is the concatenation of the parts, which leave after the
// header in the same vectored write.
func (s *Server) send(cs *connState, op byte, h frame.Header, payload ...[]byte) error {
	srvRPCCounter(op, h.Kind).Inc()
	if h.Kind == statusOK {
		s.bytesTx.Add(int64(h.Len))
	}
	cs.hdr = h.Append(cs.hdr[:0])
	cs.arr = append(cs.arr[:0], cs.hdr)
	for _, p := range payload {
		if len(p) > 0 {
			cs.arr = append(cs.arr, p)
		}
	}
	cs.iov = net.Buffers(cs.arr)
	err := flushVectored(cs.conn, &cs.iov)
	clear(cs.arr) // the scratch must not keep served blocks alive
	return err
}

// storedBlock is one block at rest: its content plus one CRC32C per
// granule (see Server.grain), computed as the put that brought it landed
// and checked, combined, against that put's frame CRC, and the stripe
// record that put sent for it, if any: the whole-block CRC32C of every
// block of its stripe. The granules are all one size, so the grain is
// len(data)/len(crcs). Who checks a block against them, and when, is in
// the package comment. hold, shared by every copy of the value, leases data
// to the answers reading it (blockStore).
type storedBlock struct {
	data []byte
	crcs []uint32
	rec  []uint32
	hold *bufpool.Hold
}

// grain is the length of each of the block's granules.
func (b storedBlock) grain() int { return len(b.data) / len(b.crcs) }

// check checksums the whole block granule by granule: n is its length,
// and intact reports whether every granule still matches its CRC.
func (b storedBlock) check() (n int, intact bool) {
	g := b.grain()
	for i, c := range b.crcs {
		if Checksum(b.data[i*g:(i+1)*g]) != c {
			return len(b.data), false
		}
	}
	return len(b.data), true
}

// aligned reports whether the n bytes at off start and end on granule
// boundaries, so rangeCRC checksums none of them.
func (b storedBlock) aligned(off, n int) bool {
	return n == 0 || off%b.grain() == 0 && (off+n)%b.grain() == 0
}

// rangeCRC returns the CRC32C of the n bytes at off, which must lie in the
// block, combined from the granule CRCs. A granule the range covers only
// in part is checksummed in one pass as the parts before, in and after the
// range, and their combine is checked against its CRC: checked counts
// those granules' bytes, and ok is false when one fails.
func (b storedBlock) rangeCRC(off, n int) (crc uint32, checked int, ok bool) {
	if n == 0 {
		return 0, 0, true
	}
	g, end := b.grain(), off+n
	var comb frame.Combiner
	for i := off / g; i*g < end; i++ {
		lo, hi := i*g, (i+1)*g
		if lo >= off && hi <= end {
			crc = comb.Combine(crc, b.crcs[i], g)
			continue
		}
		a, z := max(lo, off), min(hi, end)
		head, mid, tail := Checksum(b.data[lo:a]), Checksum(b.data[a:z]), Checksum(b.data[z:hi])
		if checked += g; frame.Combine(frame.Combine(head, mid, z-a), tail, hi-z) != b.crcs[i] {
			return 0, checked, false
		}
		crc = frame.Combine(crc, mid, z-a)
	}
	return crc, checked, true
}

// grain is the granule a size-byte block is checksummed in at rest: the
// code's unit when the block divides into its units, which is what every
// range a Store asks for is aligned to; the whole block otherwise.
func (s *Server) grain(size int) int {
	if size > 0 && size%s.code.UnitsPerBlock() == 0 {
		return size / s.code.UnitsPerBlock()
	}
	return size
}

// Server is one block store: a TCP listener over an in-memory block map.
// It also answers chunk requests with its Carousel code, computing the
// helper side of a repair locally so only blockSize/alpha bytes leave the
// machine.
type Server struct {
	code *carousel.Code

	// tracer records the server-side spans of traced requests; nil means
	// the process-wide default. Set it when several servers share a process
	// but must expose distinct /debug/traces endpoints. It is an atomic
	// pointer because request handlers load it while SetTracer may still be
	// storing it: nothing orders a running server's handlers against a
	// caller that sets the tracer after Start.
	tracer atomic.Pointer[obs.Tracer]

	// inflight counts requests currently being handled — the queue-depth
	// signal ObsSummary reports to the master.
	inflight atomic.Int64

	// bytesTx counts the OK payload bytes this server has sent — the
	// cumulative figure ObsSummary reports, from which the master derives
	// the member's tx rate.
	bytesTx atomic.Int64

	blockStore

	lnMu   sync.Mutex
	ln     net.Listener // nil until started, and again once closing
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// life ends when Close begins, and with it every rebuild in flight.
	life context.Context
	end  context.CancelFunc

	// pool is what every rebuild the server runs dials its helpers over
	// (see rebuild), whatever the request's addresses and hedge, so a
	// newcomer dials each helper once for its life, under the pool's
	// client options.
	pool *Pool
}

// NewServer returns a server for the blocks of code's stripes. It panics
// if code is nil: every put reads the code's unit size.
func NewServer(code *carousel.Code) *Server {
	if code == nil {
		panic("blockserver: NewServer: code must not be nil")
	}
	s := &Server{code: code, conns: make(map[net.Conn]struct{}),
		blockStore: blockStore{blocks: make(map[string]storedBlock), spares: bufpool.NewSpares(spareBlocks)},
		pool:       NewPool(nil, PoolOptions{})}
	s.life, s.end = context.WithCancel(context.Background())
	return s
}

// SetTracer routes this server's spans to a dedicated tracer instead of
// the process default; per-node tracers are how an in-process multi-"node"
// test gives each node its own /debug/traces. It is safe to call on a
// running server — requests already being handled may still record to the
// previous tracer.
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer.Store(t) }

// tr returns the server's tracer, defaulting to the process-wide one.
func (s *Server) tr() *obs.Tracer {
	if t := s.tracer.Load(); t != nil {
		return t
	}
	return obs.DefaultTracer()
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("blockserver: listen: %w", err)
	}
	return s.StartListener(ln)
}

// StartListener serves on an existing listener — the hook that lets tests
// and blockserverd interpose a faultnet injector between the socket and the
// protocol. It returns the listener's address.
func (s *Server) StartListener(ln net.Listener) (string, error) {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return "", fmt.Errorf("blockserver: server is closed")
	}
	s.ln = ln
	s.lnMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !s.track(conn) {
				conn.Close()
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.untrack(conn)
				s.serveConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// track registers an accepted connection, refusing it when the server is
// shutting down (so Close never races a fresh handler).
func (s *Server) track(conn net.Conn) bool {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// untrack removes a finished connection.
func (s *Server) untrack(conn net.Conn) {
	s.lnMu.Lock()
	delete(s.conns, conn)
	s.lnMu.Unlock()
}

// Close shuts down in order: stop accepting, cancel in-flight handler
// connections and rebuilds, wait for every goroutine to exit, then close
// the pool the rebuilds ran on and the helper connections it parks. A
// server blocked on an idle or half-open client connection still shuts
// down promptly because closing the conn unblocks its handler's read.
func (s *Server) Close() error {
	s.lnMu.Lock()
	s.closed = true
	ln := s.ln
	s.ln = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.lnMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.end()
	s.wg.Wait()
	s.pool.Close()
	return err
}

// serveConn handles one connection; each connection carries a sequence of
// requests.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	srvConnsOpen.Add(1)
	defer srvConnsOpen.Add(-1)
	cs := &connState{conn: conn, fr: frame.NewReader(bufio.NewReaderSize(conn, connReadBuf), maxPayload)}
	for {
		// A header that fails its CRC, a malformed meta, or a payload on
		// anything but a put ends the connection before any of it is acted
		// on; the client redials.
		h, err := cs.fr.Next()
		if err != nil {
			return
		}
		m, err := parseMeta(h.Kind, h.Meta)
		if err != nil || (h.Kind != opPut && h.Len != 0) {
			return
		}
		if m.rb != nil && len(m.rb.req.Addrs) != s.code.N() {
			return // a rebuild of another code's stripes
		}
		t0 := time.Now()
		s.inflight.Add(1)
		err = s.handle(cs, h, m)
		s.inflight.Add(-1)
		if err != nil {
			return
		}
		srvRPCWindow.ObserveSince(t0)
	}
}

// verify runs check, a check of stored bytes against their granule CRCs
// that reports how many bytes it checksummed, and counts a failure as a
// corrupt serve. On a traced request the check is recorded as a "verify"
// child span with those bytes, so the spans' bytes sum to every stored
// byte the server checksums to serve a request.
func (s *Server) verify(ctx context.Context, check func() (n int, intact bool)) byte {
	_, vsp := obs.ChildSpan(ctx, "verify")
	n, intact := check()
	if vsp != nil { // an untraced request boxes no attribute
		vsp.SetAttr("bytes", n).SetAttr("intact", intact).End()
	}
	if !intact {
		s.corruptServes.Add(1)
		return statusCorrupt
	}
	return statusOK
}

// handle dispatches one verified request; protocol errors close the
// connection, application errors are reported in-band. The names are
// connection scratch, only valid until the next request. A traced request
// runs under a remote-parented "server.<op>" span whose children (verify,
// decode) record where the server side of the exchange spent its time.
func (s *Server) handle(cs *connState, h frame.Header, m reqMeta) error {
	op := h.Kind
	ctx := context.Background()
	if m.trace != 0 { // an unknown op's meta is not read: it has none
		var sp *obs.Span
		ctx, sp = s.tr().StartRemote(ctx, spanNames[op], m.trace, m.parent)
		sp.SetAttr("block", string(m.name))
		defer sp.End()
	}
	switch op {
	case opPut:
		if err := s.ingest(cs, h, m); err != nil {
			return err
		}
		return s.reply(cs, op, statusOK, nil)

	case opRange, opChunk, opVerify:
		return s.answerNames(ctx, cs, op, m)

	case opRebuild:
		return s.rebuild(ctx, cs, m.rb)

	case opDelete:
		s.drop(m.names)
		return s.reply(cs, op, statusOK, nil)

	default:
		return s.reply(cs, op, statusError, []byte(fmt.Sprintf("unknown op %d", op)))
	}
}

// ingest stores the blocks of a put, all or none. A payload that does not
// split into count equal blocks is refused before any buffer is taken. Each
// block lands in a buffer of exactly its size, a spare of a retired block
// when the server has one — the payload read overwrites every byte of it —
// and a put whose payload fails to land spares them, as nothing else has
// seen them. The one pass that lands the blocks checksums each granule by
// granule, and the frame CRC is checked against their combination before
// any block is stored; the granule CRCs and the stripe records the meta
// carried, one slice for the whole put, become the blocks' at-rest
// checksums, and commit stores them. A put that replaced blocks but found
// too few spares for them provisions the list with as many again.
func (s *Server) ingest(cs *connState, h frame.Header, m reqMeta) error {
	if h.Len%m.count != 0 {
		return fmt.Errorf("blockserver: %d-byte put payload for %d blocks", h.Len, m.count)
	}
	size := h.Len / m.count
	var fresh int
	cs.parts, fresh = s.spares.Take(cs.parts[:0], m.count, size)
	defer func() { clear(cs.parts) }()
	grain := s.grain(size)
	per := frame.Granules(size, grain)
	crcs := make([]uint32, m.count*(per+m.w))
	grains, recs := crcs[:m.count*per], crcs[m.count*per:]
	if err := cs.fr.PayloadCRCs(h, grain, grains, cs.parts...); err != nil {
		s.spares.Give(cs.parts...)
		return err
	}
	for i := range recs {
		recs[i] = binary.BigEndian.Uint32(m.recs[4*i:])
	}
	cs.stored = cs.stored[:0]
	defer func() { clear(cs.stored) }()
	for i, data := range cs.parts {
		cs.stored = append(cs.stored, storedBlock{
			data: data,
			crcs: grains[i*per : (i+1)*per : (i+1)*per],
			rec:  recs[i*m.w : (i+1)*m.w : (i+1)*m.w],
		})
	}
	// Provisioned, the list keeps two puts' worth of a rewrite whether a
	// writer's puts met at the server (each took its own) or came one at a
	// time (each took what the last replaced), so its next rewrite
	// allocates no block however they fall.
	if s.commit(m.names, cs.stored) > 0 {
		s.spares.Provision(fresh, size)
	}
	return nil
}

// granuleCRCs checksums data granule by granule into crcs, one per grain
// bytes (frame.Granules), and returns their combine: the whole block's
// CRC32C, from the one pass that leaves its at-rest checksums.
func granuleCRCs(data []byte, grain int, crcs []uint32) (crc uint32) {
	var comb frame.Combiner
	for i := range crcs {
		part := data[i*grain : min((i+1)*grain, len(data))]
		crcs[i] = Checksum(part)
		crc = comb.Combine(crc, crcs[i], len(part))
	}
	return crc
}

// record is the stripe record a chunk or verify answer carries for b: its
// own, if it has an entry per block of the server's code. A chunk of a
// block with one is computed without verifying the block.
func (s *Server) record(b storedBlock) []uint32 {
	if len(b.rec) != s.code.N() {
		return nil
	}
	return b.rec
}

// appendRecord appends a stripe record to an answer meta: w(1) crc(4)×w.
func appendRecord(dst []byte, rec []uint32) []byte {
	dst = append(dst, byte(len(rec)))
	for _, c := range rec {
		dst = binary.BigEndian.AppendUint32(dst, c)
	}
	return dst
}

// answerNames answers a range, chunk or verify request, the ops whose
// answer is a verdict per name (see the package comment). The named blocks
// are looked up first, under one read lock, and what they could cost — for
// each, the larger of its block, which may be checksummed, and its answer
// — is checked against maxPayload before any of them is checksummed or
// anything is sized, so a request that repeats one name cannot make the
// server checksum, allocate or send more than an answer may carry; nor may
// it name more blocks than an answer's meta has room for a verdict and an
// entry each (entryLen). A range answer is the blocks' own slices, sent
// with the header in one vectored write, and a chunk answer is computed
// into one pooled payload.
func (s *Server) answerNames(ctx context.Context, cs *connState, op byte, m reqMeta) error {
	if m.count*(1+s.entryLen(op)) > math.MaxUint16 {
		return s.reply(cs, op, statusError, fmt.Appendf(nil, "%d names' verdicts, CRCs and records overflow an answer meta", m.count))
	}
	// Every block found is pinned until the answer has left.
	cs.answer, cs.pinned = cs.answer[:0], s.pin(cs.pinned[:0], m.names)
	defer s.unpin(cs.pinned)
	off, length := int(m.args[0]), int(m.args[1])
	whole := op == opRange && length == 0
	bound := 0
	for _, b := range cs.pinned {
		st := statusNotFound
		if b.hold != nil {
			st = statusOK
			// Each block found may be checksummed whole, and no chunk is
			// larger than its block; a range is at most its length.
			cost := len(b.data)
			if op == opRange {
				cost = max(cost, length)
			}
			bound += cost
		}
		cs.answer = append(cs.answer, st)
	}
	if bound > maxPayload {
		return s.reply(cs, op, statusError, fmt.Appendf(nil, "%d names could cost %d bytes, over the %d-byte payload limit", len(cs.pinned), bound, maxPayload))
	}
	var comb frame.Combiner
	var payloadCRC uint32
	size, ok := 0, 0 // size: the first OK block's
	for i, b := range cs.pinned {
		if cs.answer[i] != statusOK {
			continue
		}
		if whole && ok == 0 && off <= len(b.data) {
			length = len(b.data) - off
		}
		st := statusOK
		var crc uint32
		switch {
		case op == opVerify:
			st = s.verify(ctx, b.check)
		case op == opChunk:
			if s.record(b) == nil {
				st = s.verify(ctx, b.check)
			}
			if st == statusOK && ok > 0 && len(b.data) != size {
				st = statusError
			}
		case off+length > len(b.data) || whole && off+length != len(b.data):
			st = statusError
		case b.aligned(off, length):
			crc, _, _ = b.rangeCRC(off, length)
		default:
			st = s.verify(ctx, func() (n int, intact bool) {
				crc, n, intact = b.rangeCRC(off, length)
				return n, intact
			})
		}
		if st == statusOK {
			if ok == 0 {
				size = len(b.data)
			}
			cs.pinned[ok], cs.pinned[i] = b, cs.pinned[ok] // compacted in place, ok <= i, keeping every pin
			ok++
			switch op {
			case opRange:
				cs.answer = binary.BigEndian.AppendUint32(cs.answer, crc)
				payloadCRC = comb.Combine(payloadCRC, crc, length)
			case opVerify:
				cs.answer = appendRecord(cs.answer, s.record(b))
			}
		}
		cs.answer[i] = st
	}
	switch op {
	case opVerify:
		return s.send(cs, op, frame.Header{Kind: statusOK, Meta: cs.answer})
	case opRange:
		cs.parts = cs.parts[:0]
		defer func() { clear(cs.parts) }()
		for _, b := range cs.pinned[:ok] {
			cs.parts = append(cs.parts, b.data[off:off+length])
		}
		return s.send(cs, op, frame.Header{Kind: statusOK, Meta: cs.answer, Len: ok * length, CRC: payloadCRC}, cs.parts...)
	}
	chunkSize := s.code.HelperChunkSize(size)
	_, dsp := obs.ChildSpan(ctx, "decode")
	out := bufpool.Get(ok * chunkSize)
	defer bufpool.Put(out) // after the reply has fully written it
	helper, failed := int(m.args[0]), int(m.args[1])
	for i, b := range cs.pinned[:ok] {
		if err := s.code.HelperChunkInto(helper, failed, b.data, out[i*chunkSize:(i+1)*chunkSize]); err != nil {
			dsp.End()
			return s.reply(cs, op, statusError, []byte(err.Error()))
		}
	}
	dsp.SetAttr("chunk_bytes", len(out)).SetAttr("chunks", ok)
	dsp.End()
	for i, b := range cs.pinned[:ok] {
		crc := Checksum(out[i*chunkSize : (i+1)*chunkSize])
		cs.answer = binary.BigEndian.AppendUint32(cs.answer, crc)
		payloadCRC = comb.Combine(payloadCRC, crc, chunkSize)
		cs.answer = appendRecord(cs.answer, s.record(b))
	}
	return s.send(cs, op, frame.Header{Kind: statusOK, Meta: cs.answer, Len: len(out), CRC: payloadCRC}, out)
}

// entryLen is the most an OK name's entry in an answer meta may take: a
// range's CRC, a verify's record of n CRCs and its width, or a chunk's both.
func (s *Server) entryLen(op byte) int {
	rec := 1 + 4*s.code.N()
	switch op {
	case opRange:
		return 4
	case opVerify:
		return rec
	}
	return 4 + rec
}

// rebuildMargin is how much sooner than its coordinator's deadline a
// newcomer ends a rebuild — an eighth of the budget, at most a second — so
// that its answer, every stripe's verdict, lands in time.
func rebuildMargin(budget time.Duration) time.Duration {
	return min(budget/8, time.Second)
}

// rebuild answers a rebuild request: the newcomer runs the batch
// (Store.rebuildBatch) on a Store built for the request over the server's
// pool, which commits each block it rebuilds to this server's map, under
// the request's budget less rebuildMargin and only until the server
// closes, and answers each stripe's verdict, winning traffic and failure
// text, and each helper's winning chunks. A server never started, a batch
// whose answer would overflow a meta, or a block size NewStore would
// refuse is answered statusError before anything is dialed. A closing
// server drops the connection instead, so the coordinator retries on a
// fresh one, with whatever server then listens at the address.
func (s *Server) rebuild(ctx context.Context, cs *connState, rb *rebuildMeta) error {
	count, n := len(rb.req.Stripes), len(rb.req.Addrs)
	s.lnMu.Lock()
	started, closing := s.ln != nil, s.closed
	s.lnMu.Unlock()
	var refusal []byte
	switch {
	case 7*count+4*n > math.MaxUint16:
		refusal = fmt.Appendf(nil, "%d stripes' and %d helpers' answers overflow an answer meta", count, n)
	case closing:
		return errors.New("blockserver: server is closing")
	case !started:
		refusal = []byte("server is not serving")
	case rb.req.BlockSize%s.code.BlockAlign() != 0:
		refusal = fmt.Appendf(nil, "block size %d must be a positive multiple of %d", rb.req.BlockSize, s.code.BlockAlign())
	}
	if refusal != nil {
		return s.reply(cs, opRebuild, statusError, refusal)
	}
	st := &Store{code: s.code, addrs: rb.req.Addrs, blockSize: rb.req.BlockSize, hedge: defaultHedge, pool: s.pool, home: s}
	WithHedgeDelay(rb.req.Hedge)(st)
	ctx, cancel := context.WithTimeout(ctx, rb.budget-rebuildMargin(rb.budget))
	defer cancel()
	defer context.AfterFunc(s.life, cancel)()
	traffic, errs, chunks := st.rebuildBatch(ctx, rb.req.File, rb.req.Stripes, rb.req.Failed)
	meta, texts := appendRebuildAnswer(make([]byte, 0, 7*count+4*n), nil, traffic, errs, chunks)
	return s.send(cs, opRebuild, frame.Header{Kind: statusOK, Meta: meta, Len: len(texts), CRC: Checksum(texts)}, texts)
}

// ObsSummary snapshots the node-health signals a managed daemon piggybacks
// on control-plane heartbeats: the windowed p99 of server-side RPC latency,
// the current number of in-flight requests, and the cumulative bytes this
// server has served. The RPC window alone is process-wide, which is exact
// for the one-server-per-process daemon deployment.
func (s *Server) ObsSummary() (rpcP99NS, queueDepth, bytesTx int64) {
	return srvRPCWindow.Snapshot().Quantile(0.99), s.inflight.Load(), s.bytesTx.Load()
}
