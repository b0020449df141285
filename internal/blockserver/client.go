package blockserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"carousel/internal/bufpool"
	"carousel/internal/frame"
	"carousel/internal/obs"
	"carousel/internal/retry"
)

// Client-side metrics. RPC counts are labeled by op and outcome through an
// interned table (see rpcCounter) so per-call bookkeeping is a pair of
// array indexes instead of an allocating varargs registry lookup; retries
// and payload bytes each way are flat counters cached here. Latency
// histograms are per peer, interned once per Client. Dials are counted by
// the pool, per peer.
var (
	cliRetries = obs.Default().Counter("blockserver_client_retries_total")
	cliBytesTx = obs.Default().Counter("blockserver_client_bytes_tx_total")
	cliBytesRx = obs.Default().Counter("blockserver_client_bytes_rx_total")
)

// outcomeNames is the outcome label taxonomy, mirroring the sentinel
// errors carouselctl turns into exit codes. outcomeIndex keeps the same
// order.
var outcomeNames = [...]string{"ok", "not_found", "corrupt", "timeout", "canceled", "remote", "error"}

// outcomeIndex maps an RPC result onto its slot in outcomeNames.
func outcomeIndex(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrNotFound):
		return 1
	case errors.Is(err, ErrCorrupt):
		return 2
	case errors.Is(err, ErrTimeout):
		return 3
	case errors.Is(err, context.Canceled):
		return 4
	case errors.Is(err, ErrRemote):
		return 5
	default:
		return 6
	}
}

// rpcCounters interns every (op, outcome) counter once, so recording an
// RPC outcome on the hot path is a table index rather than a label-joining
// registry lookup.
var (
	rpcOnce     sync.Once
	rpcCounters [opVerify + 1][len(outcomeNames)]*obs.Counter
)

func rpcCounter(op byte, err error) *obs.Counter {
	rpcOnce.Do(func() {
		for o := opPut; o <= opVerify; o++ {
			for i, out := range outcomeNames {
				rpcCounters[o][i] = obs.Default().Counter("blockserver_client_rpcs_total", "op", opNames[o], "outcome", out)
			}
		}
	})
	return rpcCounters[op][outcomeIndex(err)]
}

// ErrRemote wraps in-band application errors reported by the server
// (anything it answers with statusError). The connection stays in sync, so
// these never poison it, and they are not retried.
var ErrRemote = errors.New("blockserver: remote error")

// Options tunes a client's failure behavior. Zero fields take defaults.
type Options struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds one request/response exchange (default 10s). The
	// caller's context deadline tightens it further when sooner.
	IOTimeout time.Duration
	// Retry schedules re-attempts of idempotent operations on transport
	// failure; each attempt runs on a fresh connection. The default is 3
	// attempts with 20ms..500ms jittered backoff.
	Retry retry.Policy
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 10 * time.Second
	}
	if o.Retry.Attempts == 0 {
		o.Retry = retry.Policy{Attempts: 3, Base: 20 * time.Millisecond, Max: 500 * time.Millisecond, Jitter: 0.2}
	}
	return o
}

// Client talks to one block server. It keeps a single connection and is
// not safe for concurrent use; check one out of a Pool per goroutine
// (parallel reads do exactly that). On any transport or protocol error the
// connection is closed and marked dead, so the next call redials instead
// of desyncing the framing; every operation is an idempotent full
// exchange, so retries are safe.
//
// A steady-state exchange is allocation-free: a request is a by-value
// description built into a reused scratch buffer and sent in a single
// write, response headers land in the frame reader's scratch, payloads
// come from the shared buffer pool (hand them back with Recycle), and the
// cancellation watcher is one persistent goroutine armed per call instead
// of spawned per call.
type Client struct {
	addr string
	opts Options
	conn net.Conn
	lat  *obs.Histogram // per-peer RPC latency, interned at construction

	peer *peer // the owning pool's slot set, told of dials and dial failures; nil outside a pool

	fr    *frame.Reader // response decoder over conn, replaced on every dial
	meta  []byte        // request meta scratch: name, arguments, trace context
	req   []byte        // request header scratch
	arr   [2][]byte     // gather-list backing for vectored sends
	iov   net.Buffers   // per-send view into arr, consumed by the write
	parts [][]byte      // a batch answer's landing list: the OK names' destinations

	watch      *watcher
	watchOn    bool // watcher goroutine currently running
	watchArmed bool // watcher currently guarding an exchange
}

// Dial connects to a server with default options.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr, Options{})
}

// DialContext connects to a server, bounding the dial by ctx and
// opts.DialTimeout.
func DialContext(ctx context.Context, addr string, opts Options) (*Client, error) {
	c := NewClient(addr, opts)
	if _, err := c.ensure(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient returns a client that dials lazily on first use — what the
// hedged read path wants, so dial failures surface inside the per-source
// context instead of up front.
func NewClient(addr string, opts Options) *Client {
	return &Client{
		addr: addr,
		opts: opts.withDefaults(),
		lat:  obs.Default().Histogram("blockserver_client_rpc_ns", "peer", addr),
	}
}

// Addr returns the peer address this client talks to.
func (c *Client) Addr() string { return c.addr }

// Close stops the watcher and closes the connection.
func (c *Client) Close() error {
	c.stopWatcher()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// poison closes and discards the connection so the next call redials.
func (c *Client) poison() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// ensure returns a live connection, dialing when needed.
func (c *Client) ensure(ctx context.Context) (net.Conn, error) {
	if c.conn != nil {
		return c.conn, nil
	}
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, &dialError{addr: c.addr, err: err}
	}
	c.conn = conn
	c.fr = frame.NewReader(conn, maxPayload)
	if c.peer != nil {
		c.peer.dialed()
	}
	return conn, nil
}

// dialError is a connection that could not be established, as opposed to
// one that failed in use: the only kind of failure the pool's peer memory
// learns from.
type dialError struct {
	addr string
	err  error
}

func (e *dialError) Error() string { return fmt.Sprintf("blockserver: dial %s: %v", e.addr, e.err) }
func (e *dialError) Unwrap() error { return e.err }

// inBand reports whether an error is an application verdict delivered over
// an intact, in-sync connection (no poisoning needed).
func inBand(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrRemote)
}

// watchReq arms the watcher for one exchange; the zero value disarms it.
type watchReq struct {
	ctx  context.Context
	conn net.Conn
}

// watcher interrupts in-flight I/O when the exchange's context is
// canceled, by expiring the connection deadline — per-source cancellation
// for hedged reads. One goroutine per checked-out client replaces the old
// two-channels-plus-goroutine per call, which dominated the hot path's
// allocation profile.
type watcher struct {
	arm  chan watchReq
	done chan struct{}
	quit chan struct{}
}

func (w *watcher) loop() {
	for {
		select {
		case r := <-w.arm:
			select {
			case <-r.ctx.Done():
				r.conn.SetDeadline(time.Unix(1, 0))
				<-w.arm // wait for the disarm
			case <-w.arm:
			}
			w.done <- struct{}{}
		case <-w.quit:
			return
		}
	}
}

// armWatcher guards one exchange on conn. Contexts that can never be
// canceled need no guard (the I/O deadline still bounds the exchange).
func (c *Client) armWatcher(ctx context.Context, conn net.Conn) {
	if ctx.Done() == nil {
		return
	}
	if c.watch == nil {
		c.watch = &watcher{arm: make(chan watchReq), done: make(chan struct{}), quit: make(chan struct{})}
	}
	if !c.watchOn {
		go c.watch.loop()
		c.watchOn = true
	}
	c.watch.arm <- watchReq{ctx: ctx, conn: conn}
	c.watchArmed = true
}

// disarmWatcher ends the guard and waits for the watcher's acknowledgment,
// so a late cancellation can no longer clobber the next exchange's
// deadline.
func (c *Client) disarmWatcher() {
	if !c.watchArmed {
		return
	}
	c.watchArmed = false
	c.watch.arm <- watchReq{}
	<-c.watch.done
}

// stopWatcher retires the watcher goroutine. Pools call this when parking
// an idle client so idle connections hold no goroutines; the next call
// restarts it.
func (c *Client) stopWatcher() {
	if !c.watchOn {
		return
	}
	c.watch.quit <- struct{}{}
	c.watchOn = false
}

// request describes one exchange by value, so issuing an RPC allocates
// nothing: the op, the block name, the op's integer arguments, the trace
// context do stages from the caller's span, the put body that leaves in the
// same write, and — for a scatter read — the caller's destination for the
// OK payload. A range or chunk request for several blocks carries them in
// batch instead of name: a pointer, so the request every RPC copies down
// its call chain stays as small as the single-name ops need.
type request struct {
	op            byte
	name          string
	args          [2]uint32
	trace, parent uint64
	body          []byte
	dst           []byte
	batch         *nameBatch
}

// nameBatch is a several-name range or chunk request: the block names,
// each OK answer's destination, and where each name's verdict is written.
type nameBatch struct {
	names    []string
	dst      [][]byte
	verdicts []error
}

// do runs one idempotent exchange with deadline enforcement, poisoning,
// and retry, and accounts its bytes and outcome. It returns the pooled OK
// payload (nil for a scatter read, whose payload is in r.dst).
func (c *Client) do(ctx context.Context, r request) ([]byte, error) {
	start := time.Now()
	// When the context carries a span, its IDs ride in the request's meta
	// so the server's spans join the caller's trace.
	if sp := obs.SpanFromContext(ctx); sp != nil {
		r.trace, r.parent = sp.TraceID(), sp.ID()
	}
	attempts := c.opts.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var payload []byte
	var err error
	for i := 0; i < attempts; i++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			break
		}
		payload, err = c.attempt(ctx, r)
		if err == nil || !retryable(err) || i == attempts-1 {
			break
		}
		if !c.opts.Retry.Wait(ctx, i+1) {
			break
		}
		cliRetries.Inc()
	}
	if err == nil {
		cliBytesTx.Add(int64(len(r.body)))
		cliBytesRx.Add(int64(len(payload) + len(r.dst)))
	} else if c.peer != nil && ctx.Err() == nil {
		// The retry policy ended without a connection and the caller is
		// still waiting: the peer, not the caller's patience, is the cause.
		var de *dialError
		if errors.As(err, &de) {
			c.peer.unreachable()
		}
	}
	rpcCounter(r.op, err).Inc()
	if c.lat != nil {
		c.lat.ObserveSince(start)
	}
	return payload, err
}

// call is do for the exchanges whose OK payload carries nothing the caller
// reads (it is empty, or already in r.dst).
func (c *Client) call(ctx context.Context, r request) error {
	payload, err := c.do(ctx, r)
	bufpool.Put(payload)
	return err
}

// attempt runs a single guarded exchange.
func (c *Client) attempt(ctx context.Context, r request) ([]byte, error) {
	conn, err := c.ensure(ctx)
	if err != nil {
		return nil, classify(err)
	}
	deadline := time.Now().Add(c.opts.IOTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	c.armWatcher(ctx, conn)
	payload, err := c.exchange(conn, r)
	c.disarmWatcher()
	if err != nil {
		if !inBand(err) {
			// Short read/write, malformed or corrupt frame, timeout:
			// the stream position is unknown — kill the connection.
			c.poison()
		}
		if ctx.Err() != nil {
			err = errors.Join(classify(ctx.Err()), err)
		}
		return nil, classify(err)
	}
	conn.SetDeadline(time.Time{})
	return payload, nil
}

// exchange is the one place a request is written and its response read.
// The frame header — op, then the meta of names, arguments and any trace
// context — is built in the request scratch. Header and body then leave as
// one vectored write: on TCP a single writev with no intermediate copy, so
// a block-sized Put costs one syscall and zero payload copies client-side.
func (c *Client) exchange(conn net.Conn, r request) ([]byte, error) {
	meta, err := r.meta(c.meta[:0])
	if err != nil {
		return nil, err
	}
	c.meta = meta
	c.req = frame.Header{Kind: r.op, Meta: c.meta, Len: len(r.body), CRC: Checksum(r.body)}.Append(c.req[:0])
	c.arr[0], c.arr[1] = c.req, r.body
	n := 1
	if len(r.body) > 0 {
		n = 2
	}
	c.iov = net.Buffers(c.arr[:n])
	if err := flushVectored(conn, &c.iov); err != nil {
		return nil, err
	}
	return c.readResponse(&r)
}

// meta validates the request's names and appends its meta to dst. It is
// kept out of exchange so that the frames every RPC stacks up to its
// socket read stay small: each Put runs on a fresh goroutine, whose stack
// would otherwise outgrow its starting size and be copied per call.
func (r *request) meta(dst []byte) ([]byte, error) {
	names := []string{r.name}
	if r.batch != nil {
		names = r.batch.names
	}
	for _, name := range names {
		if len(name) == 0 || len(name) > maxNameLen {
			return nil, fmt.Errorf("blockserver: invalid name length %d", len(name))
		}
	}
	dst = appendMeta(dst, r.op, names, r.args[:nargs(r.op)], r.trace, r.parent)
	if len(dst) > math.MaxUint16 {
		return nil, fmt.Errorf("blockserver: %d names make a %d-byte request meta", len(names), len(dst))
	}
	return dst, nil
}

// readResponse reads one response frame and maps non-OK statuses to
// errors. A header that fails its CRC is refused before its length is
// used. An OK range or chunk answer goes to readOne or readVerdicts; any
// other payload is returned in a pooled buffer. Non-OK payloads (error
// messages, always small) are recycled once rendered.
func (c *Client) readResponse(r *request) ([]byte, error) {
	h, err := c.fr.Next()
	if err != nil {
		return nil, err
	}
	status := h.Kind
	if multiName(r.op) && status == statusOK {
		if r.batch != nil {
			return nil, c.readVerdicts(h, r)
		}
		return c.readOne(h, r)
	}
	buf := bufpool.Get(h.Len)
	if err = c.fr.Payload(h, buf); err == nil {
		switch status {
		case statusOK:
			return buf, nil
		case statusNotFound:
			err = ErrNotFound
		case statusCorrupt:
			err = fmt.Errorf("%w: %s", ErrCorrupt, buf)
		default:
			err = fmt.Errorf("%w: %s", ErrRemote, buf)
		}
	}
	bufpool.Put(buf)
	return nil, err
}

// readOne reads an OK one-name range or chunk answer, whose verified meta
// holds its verdict. It returns the verdict as the error, or the answer: in
// a pooled buffer (Chunk), or, with r.dst set (GetRangeInto, and a Store
// round's one-name exchanges), straight into the caller's memory — the
// scatter half of the zero-copy framing: the socket fills a stripe slot,
// typically, with no pooled intermediary and no copy; a payload whose
// length differs from len(r.dst) is a protocol violation, reported
// out-of-band so the retry machinery poisons the connection rather than
// desyncing the stream. The answer readers build their errors in functions
// of their own, so the frames they stack up to the socket read stay small:
// a Store round runs each exchange on a fresh goroutine.
func (c *Client) readOne(h frame.Header, r *request) ([]byte, error) {
	if len(h.Meta) != 1 || h.Meta[0] != statusOK {
		return nil, oneVerdict(h, r)
	}
	if r.dst != nil {
		return nil, c.fr.Payload(h, r.dst)
	}
	buf := bufpool.Get(h.Len)
	if err := c.fr.Payload(h, buf); err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// oneVerdict is the error of a one-name answer whose verdict is not OK:
// the verdict itself, or a protocol violation when the answer carries a
// payload anyway or the wrong number of verdicts.
func oneVerdict(h frame.Header, r *request) error {
	if len(h.Meta) != 1 {
		return fmt.Errorf("blockserver: %d verdicts for one name", len(h.Meta))
	}
	err := verdict(r.op, h.Meta[0], r.name)
	if !inBand(err) || h.Len != 0 {
		return fmt.Errorf("blockserver: verdict %v with a %d-byte payload", err, h.Len)
	}
	return err
}

// readVerdicts reads a several-name answer: it records each verdict in
// r.batch and scatters the OK answers, in request order, straight into
// their destinations there; a payload that does not fill exactly those is
// a protocol violation, like a verdict vector of the wrong length or an
// unknown verdict.
func (c *Client) readVerdicts(h frame.Header, r *request) error {
	b := r.batch
	if len(h.Meta) != len(b.names) {
		return badAnswer(h, r, 0)
	}
	c.parts = c.parts[:0]
	// The scratch must not keep the caller's buffers alive once parked. A
	// plain defer clear(c.parts) would clear the slice as it was before the
	// appends below.
	defer func() { clear(c.parts) }()
	want := 0
	for i, v := range h.Meta {
		if b.verdicts[i] = verdict(r.op, v, b.names[i]); b.verdicts[i] == nil {
			c.parts = append(c.parts, b.dst[i])
			want += len(b.dst[i])
		} else if !inBand(b.verdicts[i]) {
			return b.verdicts[i]
		}
	}
	if h.Len != want {
		return badAnswer(h, r, want)
	}
	if err := c.fr.Payload(h, c.parts...); err != nil {
		return err
	}
	cliBytesRx.Add(int64(want)) // the last step of the exchange: it has succeeded
	return nil
}

// badAnswer is the protocol violation of a several-name answer whose
// verdict vector does not match the names asked, or whose payload does not
// fill the want bytes of destinations its OK verdicts name.
func badAnswer(h frame.Header, r *request, want int) error {
	if len(h.Meta) != len(r.batch.names) {
		return fmt.Errorf("blockserver: %d verdicts for %d names", len(h.Meta), len(r.batch.names))
	}
	return fmt.Errorf("blockserver: %d-byte %s answer for %d bytes of destinations", h.Len, opNames[r.op], want)
}

// verdict maps one name's verdict byte in a range or chunk answer onto its
// error.
func verdict(op, v byte, name string) error {
	switch v {
	case statusOK:
		return nil
	case statusNotFound:
		return ErrNotFound
	case statusCorrupt:
		return fmt.Errorf("%w: %s", ErrCorrupt, name)
	case statusError:
		if op == opRange {
			return fmt.Errorf("%w: %s: range outside the block", ErrRemote, name)
		}
		return fmt.Errorf("%w: %s: block size differs from the request's first block", ErrRemote, name)
	}
	return fmt.Errorf("blockserver: unknown verdict %d for %s", v, name)
}

// Put stores a block under name.
func (c *Client) Put(ctx context.Context, name string, data []byte) error {
	return c.call(ctx, request{op: opPut, name: name, body: data})
}

// Get fetches a whole block. The returned slice is pool-backed: pass it to
// Recycle once consumed to keep the read path allocation-free.
func (c *Client) Get(ctx context.Context, name string) ([]byte, error) {
	return c.do(ctx, request{op: opGet, name: name})
}

// GetRangeInto fetches len(dst) bytes starting at off directly into dst —
// how a parallel reader pulls only the data prefix of a Carousel block,
// scattered straight into its slot of the decode buffer. dst is fully
// overwritten on success; on error its contents are unspecified. It is
// Ranges for one name.
func (c *Client) GetRangeInto(ctx context.Context, name string, off int, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	return c.call(ctx, request{op: opRange, name: name,
		args: [2]uint32{uint32(off), uint32(len(dst))}, dst: dst})
}

// Ranges reads, in one exchange, the same range of several blocks — a
// batch of stripes' data prefixes from one source, say: len(dst[0]) bytes
// from off of block names[i] land in dst[i], and every dst[i] must be that
// long. verdicts[i] receives that block's verdict — nil, ErrNotFound,
// ErrCorrupt, or ErrRemote for a range outside the block. The returned
// error is the exchange's own (transport, timeout, or a refusal of the
// whole request); the verdicts hold only when it is nil, and a dst whose
// verdict is not nil holds nothing useful.
func (c *Client) Ranges(ctx context.Context, names []string, off int, dst [][]byte, verdicts []error) error {
	var length int
	for i, d := range dst {
		if length = len(dst[0]); len(d) != length {
			return fmt.Errorf("blockserver: range destination %d is %d bytes, the first %d", i, len(d), length)
		}
	}
	return c.callBatch(ctx, opRange, [2]uint32{uint32(off), uint32(length)}, &nameBatch{names, dst, verdicts})
}

// Chunk asks the server to compute its repair contribution for the failed
// block index; only blockSize/alpha bytes come back. The returned slice is
// pool-backed: pass it to Recycle once consumed. It is Chunks for one name.
func (c *Client) Chunk(ctx context.Context, name string, helper, failed int) ([]byte, error) {
	return c.do(ctx, request{op: opChunk, name: name,
		args: [2]uint32{uint32(helper), uint32(failed)}})
}

// Chunks asks the server, in one exchange, for its repair contributions to
// several blocks that share one (helper, failed) pair and one block size:
// the chunk of block names[i] lands in dst[i], which must be exactly the
// chunk size, and verdicts[i] receives that block's verdict — nil,
// ErrNotFound, ErrCorrupt, or ErrRemote for a block whose size differs from
// the first OK one's. The returned error is the exchange's own (transport,
// timeout, or a refusal of the whole request); the verdicts hold only when
// it is nil, and a dst whose verdict is not nil holds nothing useful.
func (c *Client) Chunks(ctx context.Context, names []string, helper, failed int, dst [][]byte, verdicts []error) error {
	return c.callBatch(ctx, opChunk, [2]uint32{uint32(helper), uint32(failed)}, &nameBatch{names, dst, verdicts})
}

// callBatch runs one several-name range or chunk exchange: Ranges and
// Chunks, and the Store's batch rounds, which hold the op's arguments
// already encoded.
func (c *Client) callBatch(ctx context.Context, op byte, args [2]uint32, b *nameBatch) error {
	if len(b.names) == 0 || len(b.dst) != len(b.names) || len(b.verdicts) != len(b.names) {
		return b.mismatch()
	}
	return c.call(ctx, request{op: op, args: args, batch: b})
}

// mismatch is the error of a batch whose lists differ in length.
func (b *nameBatch) mismatch() error {
	return fmt.Errorf("blockserver: %d names, %d destinations and %d verdict slots", len(b.names), len(b.dst), len(b.verdicts))
}

// Delete removes a block.
func (c *Client) Delete(ctx context.Context, name string) error {
	return c.call(ctx, request{op: opDelete, name: name})
}

// Stat returns the size of a block.
func (c *Client) Stat(ctx context.Context, name string) (int, error) {
	payload, err := c.do(ctx, request{op: opStat, name: name})
	if err != nil {
		return 0, err
	}
	defer bufpool.Put(payload)
	if len(payload) != 4 {
		return 0, fmt.Errorf("blockserver: malformed stat response of %d bytes", len(payload))
	}
	return int(binary.BigEndian.Uint32(payload)), nil
}

// Verify asks the server to re-checksum a block in place; it returns nil
// for an intact block, ErrCorrupt for detected bit rot, ErrNotFound for a
// missing block. No block content crosses the network.
func (c *Client) Verify(ctx context.Context, name string) error {
	return c.call(ctx, request{op: opVerify, name: name})
}
