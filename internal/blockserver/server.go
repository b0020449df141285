package blockserver

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
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
// and status; opcode 0 is never sent, so its slot names unknown opcodes.
var (
	opNames     = [...]string{"unknown", "put", "get", "range", "chunk", "delete", "stat", "verify"}
	statusNames = [...]string{"ok", "not_found", "error", "corrupt"}
)

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
				srvRPCCounters[o][s] = obs.Default().Counter("blockserver_server_rpcs_total", "op", on, "status", sn)
			}
		}
	})
	if int(op) >= len(opNames) {
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
// and meta land in the frame reader's scratch, and the response header and
// a stat's payload in buffers that live as long as the connection.
type connState struct {
	conn  net.Conn
	fr    *frame.Reader // every request byte is read through this
	hdr   []byte        // response header scratch
	small [4]byte       // stat payload scratch
	arr   [][]byte      // gather-list backing for vectored responses, cleared after each
	iov   net.Buffers   // per-reply view into arr, consumed by the write

	verdicts []byte        // a range or chunk answer's verdict vector
	blocks   []storedBlock // the blocks a range or chunk answer is served from, cleared after it
	parts    [][]byte      // a range answer's slices of those blocks, cleared after it
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

// send is reply for a header the caller has filled in: a whole stored
// block whose CRC32C load has just verified against its ingest CRC, or a
// range or chunk answer whose verdicts ride in the meta. The payload is
// the concatenation of the parts, which leave after the header in the same
// vectored write.
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

// storedBlock is one block at rest: its content plus the CRC32C it arrived
// under (the put frame's checksum, verified at ingest). Every serving path
// re-verifies content against the CRC, so bit rot is detected at read time
// instead of being decoded into garbage.
type storedBlock struct {
	data []byte
	crc  uint32
}

// Server is one block store: a TCP listener over an in-memory block map.
// When constructed with a Carousel code it also answers chunk requests,
// computing the helper side of a repair locally so only blockSize/alpha
// bytes leave the machine.
type Server struct {
	code *carousel.Code // may be nil: chunk requests are then rejected

	// tracer records the server-side spans of traced requests; nil means
	// the process-wide default. Set it when several servers share a process
	// but must expose distinct /debug/traces endpoints. It is an atomic
	// pointer because request handlers load it while SetTracer may still be
	// storing it: nothing orders a running server's handlers against a
	// caller that sets the tracer after Start.
	tracer atomic.Pointer[obs.Tracer]

	// corruptServes counts requests answered with a corrupt verdict —
	// per-server bit-rot pressure, piggybacked on control-plane heartbeats.
	corruptServes atomic.Int64

	// inflight counts requests currently being handled — the queue-depth
	// signal ObsSummary reports to the master.
	inflight atomic.Int64

	// bytesTx counts the OK payload bytes this server has sent — the
	// cumulative figure ObsSummary reports, from which the master derives
	// the member's tx rate.
	bytesTx atomic.Int64

	mu     sync.RWMutex
	blocks map[string]storedBlock

	lnMu   sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server; code may be nil for a plain block store.
func NewServer(code *carousel.Code) *Server {
	return &Server{code: code, blocks: make(map[string]storedBlock), conns: make(map[net.Conn]struct{})}
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
// connections, then wait for every goroutine to exit. A server blocked on
// an idle or half-open client connection still shuts down promptly because
// closing the conn unblocks its handler's read.
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
	s.wg.Wait()
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

// load fetches a stored block and verifies it against its ingest CRC. The
// byte-slice key keeps the lookup allocation-free (the string conversion
// in a map index does not escape).
func (s *Server) load(ctx context.Context, name []byte) (storedBlock, byte) {
	s.mu.RLock()
	b, ok := s.blocks[string(name)]
	s.mu.RUnlock()
	if !ok {
		return storedBlock{}, statusNotFound
	}
	if st := s.verify(ctx, b); st != statusOK {
		return storedBlock{}, st
	}
	return b, statusOK
}

// verify checks a stored block against its ingest CRC. On a traced request
// the check is recorded as a "verify" child span.
func (s *Server) verify(ctx context.Context, b storedBlock) byte {
	vsp := spanChild(ctx, "verify")
	intact := Checksum(b.data) == b.crc
	vsp.SetAttr("bytes", len(b.data)).SetAttr("intact", intact)
	vsp.End()
	if !intact {
		s.corruptServes.Add(1)
		return statusCorrupt
	}
	return statusOK
}

// spanChild starts a child span when ctx already carries one (a traced
// request) and returns nil otherwise, so untraced requests pay nothing —
// nil spans are inert.
func spanChild(ctx context.Context, name string) *obs.Span {
	if obs.SpanFromContext(ctx) == nil {
		return nil
	}
	_, sp := obs.StartSpan(ctx, name)
	return sp
}

// handle dispatches one verified request; protocol errors close the
// connection, application errors are reported in-band. The name is
// connection scratch, only valid until the next request — arms that retain
// it (put, delete) convert it to a string.
//
// When the request carries a trace context, the whole request runs under a
// remote-parented "server.<op>" span whose children (verify, decode)
// record where the server side of the exchange spent its time; the span
// tree joins the client's via the wire trace ID.
func (s *Server) handle(cs *connState, h frame.Header, m reqMeta) error {
	op, name := h.Kind, m.name
	ctx := context.Background()
	if m.trace != 0 && op >= opPut && op <= opVerify {
		var sp *obs.Span
		ctx, sp = s.tr().StartRemote(ctx, "server."+opNames[op], m.trace, m.parent)
		sp.SetAttr("block", string(name))
		defer sp.End()
	}
	switch op {
	case opPut:
		// The payload is allocated at exactly its size and never pooled:
		// the block map retains it for as long as the block lives, and a
		// handler serving the block it replaces may still be writing the
		// old slice to its socket. Its verified frame CRC becomes the
		// block's ingest CRC.
		data := make([]byte, h.Len)
		if err := cs.fr.Payload(h, data); err != nil {
			return err
		}
		s.mu.Lock()
		s.blocks[string(name)] = storedBlock{data: data, crc: h.CRC}
		s.mu.Unlock()
		return s.reply(cs, op, statusOK, nil)

	case opGet:
		b, st := s.load(ctx, name)
		if st != statusOK {
			return s.reply(cs, op, st, name)
		}
		return s.send(cs, op, frame.Header{Kind: statusOK, Len: len(b.data), CRC: b.crc}, b.data)

	case opRange, opChunk:
		return s.answerNames(ctx, cs, op, m)

	case opDelete:
		s.mu.Lock()
		delete(s.blocks, string(name))
		s.mu.Unlock()
		return s.reply(cs, op, statusOK, nil)

	case opStat:
		b, st := s.load(ctx, name)
		if st != statusOK {
			return s.reply(cs, op, st, name)
		}
		binary.BigEndian.PutUint32(cs.small[:4], uint32(len(b.data)))
		return s.reply(cs, op, statusOK, cs.small[:4])

	case opVerify:
		// A scrub primitive: re-checksum the block server-side without
		// shipping its content. statusOK means intact.
		_, st := s.load(ctx, name)
		if st != statusOK {
			return s.reply(cs, op, st, name)
		}
		return s.reply(cs, op, statusOK, nil)

	default:
		return s.reply(cs, op, statusError, []byte(fmt.Sprintf("unknown op %d", op)))
	}
}

// answerNames answers a range or chunk request, the two ops that name a
// list of blocks sharing one pair of arguments. The named blocks are looked
// up first, under one read lock, and what they could cost — for each, the
// larger of its block, which is checksummed, and its answer — is checked
// against maxPayload before any of them is verified or anything is sized,
// so a request that repeats one name cannot make the server checksum,
// allocate or send more than an answer may carry. Each block found is then verified and earns a verdict: a range
// outside its block, or a chunk's block whose size differs from the first
// OK one's, is statusError. The OK answers follow in request order: a
// range answer is the blocks' own slices, sent with the header in one
// vectored write, and a chunk answer is computed into one pooled payload.
func (s *Server) answerNames(ctx context.Context, cs *connState, op byte, m reqMeta) error {
	if op == opChunk && s.code == nil {
		return s.reply(cs, op, statusError, []byte("server has no code configured"))
	}
	cs.verdicts, cs.blocks = cs.verdicts[:0], cs.blocks[:0]
	// The scratch must not keep deleted blocks alive. The closure clears the
	// slice as the appends below leave it, not as it was when deferred.
	defer func() { clear(cs.blocks) }()
	off, length := int(m.args[0]), int(m.args[1])
	bound := 0
	s.mu.RLock()
	for list := m.names; len(list) > 0; {
		var name []byte
		name, list = nextName(list)
		b, found := s.blocks[string(name)]
		st := statusNotFound
		if found {
			st = statusOK
			// Each block found is checksummed, and no chunk is larger than
			// its block; a range is at most its length.
			cost := len(b.data)
			if op == opRange {
				cost = max(cost, length)
			}
			bound += cost
		}
		cs.verdicts, cs.blocks = append(cs.verdicts, st), append(cs.blocks, b)
	}
	s.mu.RUnlock()
	if bound > maxPayload {
		return s.reply(cs, op, statusError, fmt.Appendf(nil, "%d names could cost %d bytes, over the %d-byte payload limit", len(cs.verdicts), bound, maxPayload))
	}
	size, ok := -1, 0
	for i, b := range cs.blocks {
		if cs.verdicts[i] != statusOK {
			continue
		}
		st := statusOK
		if op == opRange && off+length > len(b.data) {
			st = statusError
		} else if st = s.verify(ctx, b); st == statusOK && op == opChunk {
			if size < 0 {
				size = len(b.data)
			} else if len(b.data) != size {
				st = statusError
			}
		}
		if st == statusOK {
			cs.blocks[ok] = b // compacted in place: ok <= i
			ok++
		}
		cs.verdicts[i] = st
	}
	if op == opRange {
		cs.parts = cs.parts[:0]
		defer func() { clear(cs.parts) }()
		var crc uint32
		for _, b := range cs.blocks[:ok] {
			p := b.data[off : off+length]
			cs.parts, crc = append(cs.parts, p), frame.Update(crc, p)
		}
		return s.send(cs, op, frame.Header{Kind: statusOK, Meta: cs.verdicts, Len: ok * length, CRC: crc}, cs.parts...)
	}
	chunkSize := s.code.HelperChunkSize(max(size, 0))
	dsp := spanChild(ctx, "decode")
	out := bufpool.Get(ok * chunkSize)
	defer bufpool.Put(out) // after the reply has fully written it
	helper, failed := int(m.args[0]), int(m.args[1])
	for i, b := range cs.blocks[:ok] {
		if err := s.code.HelperChunkInto(helper, failed, b.data, out[i*chunkSize:(i+1)*chunkSize]); err != nil {
			dsp.End()
			return s.reply(cs, op, statusError, []byte(err.Error()))
		}
	}
	dsp.SetAttr("chunk_bytes", len(out)).SetAttr("chunks", ok)
	dsp.End()
	return s.send(cs, op, frame.Header{Kind: statusOK, Meta: cs.verdicts, Len: len(out), CRC: Checksum(out)}, out)
}

// Stats reports this server's stored capacity and corrupt-serve count —
// the health snapshot the control-plane heartbeat piggybacks.
func (s *Server) Stats() (blocks int64, bytes int64, corruptServes int64) {
	s.mu.RLock()
	blocks = int64(len(s.blocks))
	for _, b := range s.blocks {
		bytes += int64(len(b.data))
	}
	s.mu.RUnlock()
	return blocks, bytes, s.corruptServes.Load()
}

// ObsSummary snapshots the node-health signals a managed daemon piggybacks
// on control-plane heartbeats: the windowed p99 of server-side RPC latency,
// the current number of in-flight requests, and the cumulative bytes this
// server has served. The RPC window alone is process-wide, which is exact
// for the one-server-per-process daemon deployment.
func (s *Server) ObsSummary() (rpcP99NS, queueDepth, bytesTx int64) {
	return srvRPCWindow.Snapshot().Quantile(0.99), s.inflight.Load(), s.bytesTx.Load()
}

// CorruptBlock flips a byte of a stored block without updating its CRC — a
// fault-injection hook standing in for bit rot on disk.
func (s *Server) CorruptBlock(name string, offset int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if offset < 0 || offset >= len(b.data) {
		return fmt.Errorf("blockserver: offset %d out of range [0,%d)", offset, len(b.data))
	}
	b.data[offset] ^= 0xff
	return nil
}
