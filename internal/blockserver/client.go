package blockserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"syscall"
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
// the pool, per peer (Pool.DialCounts).
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
	rpcCounters [opRebuild + 1][len(outcomeNames)]*obs.Counter
)

func rpcCounter(op byte, err error) *obs.Counter {
	rpcOnce.Do(func() {
		for o := opPut; o <= opRebuild; o++ {
			for i, out := range outcomeNames {
				if known(o) {
					rpcCounters[o][i] = obs.Default().Counter("blockserver_client_rpcs_total", "op", opNames[o], "outcome", out)
				}
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

	// dial, when set, connects in place of a net.Dialer bounded by
	// DialTimeout: the seam through which a test counts the bytes on one
	// store's own sockets. A rebuild request does not carry it, so a
	// newcomer always dials its helpers plainly.
	dial func(ctx context.Context, addr string) (net.Conn, error)
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
// A steady-state exchange under a context that can never be canceled is
// allocation-free: a request is a by-value description built into a reused
// scratch buffer and sent in a single write, a one-name exchange's batch,
// its name list included, is the client's own, response headers land in
// the frame reader's scratch, and answers land in the caller's memory or
// come from the shared buffer pool (hand them back with Recycle). A
// cancellable context costs one context.AfterFunc registration per
// exchange, but a Store round's exchanges share one (see attempt). A
// Client owns no goroutine, checked out or parked.
type Client struct {
	addr string
	opts Options
	conn net.Conn
	raw  syscall.RawConn // conn's, kept from the dial for peekStale; nil if conn has none
	lat  *obs.Histogram  // per-peer RPC latency, interned at construction

	peer *peer // the owning pool's slot set, told of dials and dial failures; nil outside a pool

	fr    *frame.Reader // response decoder over conn, replaced on every dial
	meta  []byte        // request meta scratch: names, arguments, trace context
	req   []byte        // request header scratch
	arr   [][]byte      // gather-list backing for vectored sends, cleared after each
	iov   net.Buffers   // per-send view into arr, consumed by the write
	parts [][]byte      // a range, chunk or verify answer's landing list: the OK names' destinations
	crcs  []uint32      // the CRC32Cs those landed under, one per OK name
	one   oneName       // a one-name exchange's batch

	probe       func(fd uintptr) bool // peekStale's probe of raw, bound once
	peekedStale bool                  // the probe's verdict

	// rotten names the blocks whose bytes the last exchange landed unlike
	// the CRC their server sent for them; do reports them (see report).
	rotten nameList
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

// Close closes the connection.
func (c *Client) Close() error {
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
	var conn net.Conn
	var err error
	if c.opts.dial != nil {
		conn, err = c.opts.dial(ctx, c.addr)
	} else {
		d := net.Dialer{Timeout: c.opts.DialTimeout}
		conn, err = d.DialContext(ctx, "tcp", c.addr)
	}
	if err != nil {
		return nil, &dialError{addr: c.addr, err: err}
	}
	c.conn = conn
	c.fr = frame.NewReader(conn, maxPayload)
	c.raw = nil
	if sc, ok := conn.(syscall.Conn); ok {
		c.raw, _ = sc.SyscallConn()
	}
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

// request describes one exchange by value, so issuing an RPC allocates
// nothing: the op, its names, the op's integer arguments and the trace
// context do stages from the caller's span. The names ride in batch, a
// pointer, so the request every RPC copies down its call chain stays
// small; a rebuild carries rb instead, and a Store round's exchange its
// round's hook and hedge: no attempt starts, and none runs, past the
// hedge, which is a deadline value and not a context's, so it costs no
// timer unless the exchange has to wait (bounded).
type request struct {
	op            byte
	args          [2]uint32
	trace, parent uint64
	batch         *nameBatch
	rb            *rebuildCall
	hook          *roundHook
	hedge         time.Time
}

// err is ctx's error, context.Canceled once r's round hook has fired, or
// context.DeadlineExceeded once r's hedge has passed.
func (r *request) err(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.hook != nil && r.hook.interrupted() {
		return context.Canceled
	}
	if r.hedge.IsZero() || time.Now().Before(r.hedge) {
		return nil
	}
	return context.DeadlineExceeded
}

// bounded is ctx ending at r's hedge too, for what waits on ctx — a dial,
// a retry's backoff, a rot report — none of which a healthy exchange does.
func (r *request) bounded(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.hedge.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, r.hedge)
}

// roundHook is a Store round's one cancellation hook, in place of one per
// exchange: an attempt holds its connection under it for the exchange, and
// once the round's context ends or its cache flight is aborted
// (Interrupt), every connection held then or later has its deadline moved
// into the past, a checkout waiting for a client gives up, and no attempt
// or retry starts.
type roundHook struct {
	mu    sync.Mutex
	fired bool
	conns []net.Conn
	done  chan struct{} // closed when the hook fires
}

func newRoundHook() *roundHook { return &roundHook{done: make(chan struct{})} }

// hold puts conn under the hook for an exchange, expiring its deadline at
// once if the hook has fired.
func (h *roundHook) hold(conn net.Conn) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.conns = append(h.conns, conn)
	if h.fired {
		conn.SetDeadline(time.Unix(1, 0))
	}
}

// drop takes conn off the hook and reports whether the hook has fired.
func (h *roundHook) drop(conn net.Conn) (fired bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.conns = slices.DeleteFunc(h.conns, func(c net.Conn) bool { return c == conn })
	return h.fired
}

// interrupted reports whether the hook has fired.
func (h *roundHook) interrupted() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fired
}

// Interrupt fires the hook, once the round's context ends or its flight is
// aborted; a second call does nothing.
func (h *roundHook) Interrupt() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fired {
		return
	}
	h.fired = true
	close(h.done)
	for _, conn := range h.conns {
		conn.SetDeadline(time.Unix(1, 0))
	}
}

// rebuildCall is a rebuild exchange: its request, the budget each attempt
// gives the newcomer — the attempt's deadline, less now — and where the
// answer lands.
type rebuildCall struct {
	req    *rebuildRequest
	budget time.Duration
	res    *rebuildResult
}

// nameBatch is a request's block names, in their wire form, and, for a
// put, range, chunk or verify, each name's buffer: the block a put sends,
// or where an OK answer lands — nil for a verify, whose answers are empty.
// A range, chunk or verify writes each name's verdict into verdicts. A put
// may carry its blocks' CRC32Cs and stripe records; a chunk or verify
// request may take each OK name's stripe record into recs. A one-name
// range or chunk batch whose buffer is nil lands its answer in a pooled
// buffer sized by the answer.
type nameBatch struct {
	names    nameList
	bufs     [][]byte
	verdicts []error
	crcs     []uint32   // a put's blocks' CRC32Cs; nil: checksum the blocks
	recs     [][]uint32 // a put's stripe records, or where a chunk's or verify's answers' land; nil: none
}

// oneName is the client's batch for a one-name exchange, over arrays and a
// name list of its own: such an exchange allocates no batch.
type oneName struct {
	b       nameBatch
	buf     [1][]byte
	verdict [1]error
	rec     [1][]uint32
}

// oneBatch returns the client's one-name batch, empty, taking a chunk's
// stripe record when recs is set. The caller appends a name and a buffer,
// and empties c.one (clearOne) once it has read the outcome: a parked
// client keeps nothing alive but its name list's bytes.
func (c *Client) oneBatch(recs bool) *nameBatch {
	o := &c.one
	o.b.names.reset()
	o.b.bufs, o.b.verdicts = o.buf[:0], o.verdict[:]
	if recs {
		o.b.recs = o.rec[:0]
	}
	return &o.b
}

// clearOne empties the client's one-name batch, keeping its name list's
// capacity.
func (c *Client) clearOne() {
	c.one = oneName{b: nameBatch{names: nameList{wire: c.one.b.names.wire[:0]}}}
}

// sent is how many payload bytes the request carries: a put's blocks.
func (r *request) sent() (n int) {
	if r.op == opPut {
		for _, b := range r.batch.bufs {
			n += len(b)
		}
	}
	return n
}

// do runs one idempotent exchange with deadline enforcement, poisoning,
// and retry, and accounts its bytes and outcome. A request whose name list
// refused a name fails before anything is dialed or sent.
func (c *Client) do(ctx context.Context, r request) error {
	if r.batch != nil && r.batch.names.err != nil {
		return r.batch.names.err
	}
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
	var err error
	for i := 0; i < attempts; i++ {
		if cerr := r.err(ctx); cerr != nil {
			if err == nil {
				err = cerr
			}
			break
		}
		err = c.attempt(ctx, r)
		if err == nil || !retryable(err) || i == attempts-1 {
			break
		}
		wctx, cancel := r.bounded(ctx)
		waited := c.opts.Retry.Wait(wctx, i+1)
		cancel()
		if !waited {
			break
		}
		cliRetries.Inc()
	}
	if err == nil {
		cliBytesTx.Add(int64(r.sent()))
	} else if c.peer != nil && r.err(ctx) == nil {
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
	if c.rotten.count > 0 {
		rctx, cancel := r.bounded(ctx)
		c.report(rctx)
		cancel()
	}
	return err
}

// report asks the server to verify, in one exchange, every block whose
// bytes the last exchange landed unlike the CRC the server sent for them.
// The reader cannot tell rot at rest from damage on the wire; the server
// can, and counts rot as a corrupt serve where it lives.
func (c *Client) report(ctx context.Context) {
	rotten := c.rotten
	c.rotten = nameList{} // the verify exchange below lands nothing
	// The verdicts change nothing: the bytes that landed were bad either way.
	_ = c.verifies(ctx, rotten, nil, make([]error, rotten.count))
	rotten.reset()
	c.rotten = rotten
}

// attempt runs a single guarded exchange. Canceling ctx interrupts its
// in-flight I/O — per-source cancellation for hedged reads — by expiring
// the connection deadline from a context.AfterFunc hook, or from r's
// round hook. Contexts that can never be canceled need no hook (the I/O
// deadline, or r's hedge, still bounds the exchange).
func (c *Client) attempt(ctx context.Context, r request) error {
	conn := c.conn
	if conn == nil {
		dctx, cancel := r.bounded(ctx)
		var err error
		conn, err = c.ensure(dctx)
		cancel()
		if err != nil {
			return classify(err)
		}
	}
	deadline := time.Now().Add(c.opts.IOTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if !r.hedge.IsZero() && r.hedge.Before(deadline) {
		deadline = r.hedge
	}
	conn.SetDeadline(deadline)
	if r.rb != nil {
		r.rb.budget = time.Until(deadline)
	}
	var stop func() bool
	if r.hook != nil {
		r.hook.hold(conn)
	} else if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	}
	err := c.exchange(conn, r)
	// A hook that has started may expire the deadline at any moment from
	// here on, so its connection is dropped even after a good exchange: a
	// late deadline never reaches a parked connection.
	hooked := stop != nil && !stop() || r.hook != nil && r.hook.drop(conn)
	if hooked || (err != nil && !inBand(err)) {
		// Short read/write, malformed or corrupt frame, timeout, or a
		// canceled exchange: the stream position or the deadline is
		// unknown — kill the connection.
		c.poison()
	}
	if err != nil {
		if cerr := r.err(ctx); cerr != nil {
			err = errors.Join(classify(cerr), err)
		}
		return classify(err)
	}
	if !hooked {
		conn.SetDeadline(time.Time{})
	}
	return nil
}

// exchange is the one place a request is written and its response read.
// The frame header — op, then the meta of names, arguments and any trace
// context — is built in the request scratch. Header and a put's blocks then
// leave as one vectored write: on TCP a single writev with no intermediate
// copy, so a put of a batch's blocks costs one syscall and zero payload
// copies client-side.
func (c *Client) exchange(conn net.Conn, r request) error {
	if err := c.header(&r); err != nil {
		return err
	}
	c.iov = net.Buffers(c.arr)
	err := flushVectored(conn, &c.iov)
	clear(c.arr) // the scratch must not keep the caller's blocks alive once parked
	if err != nil {
		return err
	}
	return c.readResponse(&r)
}

// header builds the request's frame header in the request scratch and the
// gather list that sends it: the header, then a put's blocks, whose CRC32C
// is the combine of the caller's block CRCs, or else extended block by
// block. Like meta, it is kept out of exchange so the frames every RPC
// stacks up to its socket read stay small.
func (c *Client) header(r *request) error {
	meta, err := r.meta(c.meta[:0])
	if err != nil {
		return err
	}
	c.meta = meta
	c.arr = append(c.arr[:0], nil)
	var crc uint32
	if r.op == opPut {
		var comb frame.Combiner
		for i, b := range r.batch.bufs {
			c.arr = append(c.arr, b)
			if r.batch.crcs == nil {
				crc = frame.Update(crc, b)
			} else {
				crc = comb.Combine(crc, r.batch.crcs[i], len(b))
			}
		}
	}
	c.req = frame.Header{Kind: r.op, Meta: c.meta, Len: r.sent(), CRC: crc}.Append(c.req[:0])
	c.arr[0] = c.req
	return nil
}

// meta appends the request's meta to dst. It is kept out of exchange so
// that the frames every RPC stacks up to its socket read stay small: each
// put exchange runs on a fresh goroutine, whose stack would otherwise
// outgrow its starting size and be copied per call.
func (r *request) meta(dst []byte) ([]byte, error) {
	if r.rb != nil {
		dst = appendRebuild(dst, r.rb.req, r.rb.budget, r.trace, r.parent)
		if len(dst) > math.MaxUint16 {
			return nil, fmt.Errorf("blockserver: a %d-byte rebuild request meta", len(dst))
		}
		return dst, nil
	}
	names, recs := r.batch.names, [][]uint32(nil)
	if r.op == opPut {
		recs = r.batch.recs
	}
	dst = appendMeta(dst, r.op, names, r.args[:nargs(r.op)], recs, r.trace, r.parent)
	if len(dst) > math.MaxUint16 {
		return nil, fmt.Errorf("blockserver: %d names make a %d-byte request meta", names.count, len(dst))
	}
	return dst, nil
}

// readResponse reads one response frame. A header that fails its CRC is
// refused before its length is used. An OK range, chunk or verify answer
// goes to readVerdicts, and an OK rebuild answer to readRebuild; any other
// payload — an OK put or delete answer has none, and a refusal's message
// is small — is read into a pooled buffer and recycled once rendered.
func (c *Client) readResponse(r *request) error {
	h, err := c.fr.Next()
	if err != nil {
		return err
	}
	switch {
	case h.Kind == statusOK && r.rb != nil:
		return c.readRebuild(h, r.rb)
	case h.Kind == statusOK && answersNames(r.op):
		return c.readVerdicts(h, r)
	}
	buf := bufpool.Get(h.Len)
	if err = c.fr.Payload(h, buf); err == nil && h.Kind != statusOK {
		err = fmt.Errorf("%w: %s", ErrRemote, buf)
	}
	bufpool.Put(buf)
	return err
}

// readVerdicts reads an OK range, chunk or verify answer: it records each
// verdict in r.batch, scatters the OK answers (a verify's are empty) in
// request order straight into their destinations there, and checks each
// against its CRC in the meta: a mismatch is that name's ErrCorrupt, and
// the connection stays in sync. Each OK name's stripe record goes to its
// slot of r.batch.recs, when there is one. A one-name range or chunk batch
// with no destination lands in a pooled buffer sized by the answer, pooled
// again unless the exchange and the name's verdict are OK. An answer whose
// meta or payload does not fit the request is a protocol violation. Its
// errors are built in functions of their own, so the frames an exchange
// stacks up to its socket read stay small: a Store round runs each
// exchange on a fresh goroutine.
func (c *Client) readVerdicts(h frame.Header, r *request) (err error) {
	b := r.batch
	count := b.names.count
	if len(h.Meta) < count {
		return badMeta(h, r, 0)
	}
	c.parts = c.parts[:0]
	pooled := r.op != opVerify && count == 1 && b.bufs[0] == nil
	// The scratch must not keep the caller's buffers alive once parked. A
	// plain defer clear(c.parts) would clear the slice as it was before the
	// appends below.
	defer func() {
		clear(c.parts)
		if pooled && (err != nil || b.verdicts[0] != nil) {
			bufpool.Put(b.bufs[0])
			b.bufs[0] = nil
		}
	}()
	want := 0
	for i, v := range h.Meta[:count] {
		if b.verdicts[i] = verdict(r.op, v, &b.names, i); b.verdicts[i] == nil {
			if pooled {
				b.bufs[i] = bufpool.Get(h.Len)
			}
			c.parts = append(c.parts, b.bufs[i])
			want += len(b.bufs[i])
		} else if !inBand(b.verdicts[i]) {
			return b.verdicts[i]
		}
	}
	if !entriesFit(r.op, h.Meta[count:], len(c.parts)) {
		return badMeta(h, r, len(c.parts))
	}
	if h.Len != want {
		return badLength(h, r, want)
	}
	// A payload that fails the frame CRC is weighed against the names' own.
	c.crcs = slices.Grow(c.crcs[:0], len(c.parts))[:len(c.parts)]
	err = c.fr.PayloadCRCs(h, 0, c.crcs, c.parts...)
	if err != nil && !errors.Is(err, frame.ErrPayload) {
		return err
	}
	landed, rotten := c.entries(h, r)
	if err != nil && !rotten {
		return err
	}
	cliBytesRx.Add(int64(landed)) // the last step of the exchange: it has succeeded
	return nil
}

// entries checks each OK name's landed bytes against the CRC of its entry
// in the meta — a mismatch is that name's rot — and takes an OK name's
// stripe record into its slot of r.batch.recs. It reports the bytes that
// landed intact and whether any name rotted. It is kept out of
// readVerdicts so the frames a batch exchange stacks up to its socket read
// stay small.
func (c *Client) entries(h frame.Header, r *request) (landed int, rotten bool) {
	b := r.batch
	entries := h.Meta[b.names.count:]
	for i, j := 0, 0; i < b.names.count; i++ {
		if b.recs != nil {
			b.recs[i] = b.recs[i][:0]
		}
		if b.verdicts[i] != nil {
			continue
		}
		crc, rec, rest, _ := cutEntry(r.op, entries)
		entries = rest
		if c.crcs[j] != crc {
			name := b.names.at(i)
			c.rotten.add(string(name)) // reported by do; see report
			b.verdicts[i], rotten = fmt.Errorf("%w: %s: checksum mismatch at the reader", ErrCorrupt, name), true
		} else {
			landed += len(b.bufs[i])
			for ; b.recs != nil && len(rec) > 0; rec = rec[4:] {
				b.recs[i] = append(b.recs[i], binary.BigEndian.Uint32(rec))
			}
		}
		j++
	}
	return landed, rotten
}

// badMeta is the protocol violation of an answer whose meta does not hold
// a verdict per name asked and an entry per one of its ok OK verdicts.
func badMeta(h frame.Header, r *request, ok int) error {
	return fmt.Errorf("blockserver: %d-byte %s answer meta for %d names, %d of them OK", len(h.Meta), opNames[r.op], r.batch.names.count, ok)
}

// badLength is the protocol violation of an answer whose
// payload does not fill the want bytes of its OK names' destinations.
func badLength(h frame.Header, r *request, want int) error {
	return fmt.Errorf("blockserver: %d-byte %s answer for %d bytes of destinations", h.Len, opNames[r.op], want)
}

// verdict maps the verdict byte of the i-th of names in a range, chunk or
// verify answer onto its error.
func verdict(op, v byte, names *nameList, i int) error {
	switch v {
	case statusOK:
		return nil
	case statusNotFound:
		return ErrNotFound
	case statusCorrupt:
		return fmt.Errorf("%w: %s", ErrCorrupt, names.at(i))
	case statusError:
		if op == opRange {
			return fmt.Errorf("%w: %s: range outside the block, or its end unlike the first OK block's", ErrRemote, names.at(i))
		}
		return fmt.Errorf("%w: %s: block size differs from the request's first block", ErrRemote, names.at(i))
	}
	return fmt.Errorf("blockserver: unknown verdict %d for %s", v, names.at(i))
}

// Put stores a block under name, with no stripe record: it is puts for one
// name, which checksums the block itself.
func (c *Client) Put(ctx context.Context, name string, data []byte) error {
	c.oneBatch(false).names.add(name)
	_, err := c.single(ctx, opPut, [2]uint32{}, data)
	return err
}

// puts stores, in one exchange, blocks[i] under the i-th name of names for
// every i — a write's blocks of a batch of stripes for one server, say.
// The blocks must all be one size. The server stores all of them or none,
// so on an error the caller may simply put them again. The blocks leave as
// they are, with no copy, and the client keeps no reference to them once
// puts returns.
//
// crcs[i], when crcs is not nil, is the CRC32C of blocks[i], which a
// writer has from its encode: the frame's CRC is combined from them, so
// the blocks are not read again to send them (nil: puts checksums them).
// recs[i], when recs is not nil, is the stripe record stored with
// blocks[i] — the whole-block CRC32C of every block of its stripe, fewer
// than 256 and as many for every name — which the server sends with each
// chunk of the block instead of verifying it first.
func (c *Client) puts(ctx context.Context, names nameList, blocks [][]byte, crcs []uint32, recs [][]uint32) error {
	b := &nameBatch{names: names, bufs: blocks, crcs: crcs, recs: recs}
	if err := b.checkPut(); err != nil {
		return err
	}
	return c.do(ctx, request{op: opPut, batch: b})
}

// checkPut refuses a put whose lists differ in length, whose blocks differ
// in size, or whose records differ in width or are too wide for the meta.
// It is kept out of puts so the frames a put stacks up to its socket read
// stay small: each of a write's put exchanges runs on a fresh goroutine.
func (b *nameBatch) checkPut() error {
	n := b.names.count
	if n == 0 || len(b.bufs) != n || b.crcs != nil && len(b.crcs) != n || b.recs != nil && len(b.recs) != n {
		return fmt.Errorf("blockserver: %d names, %d blocks, %d CRCs and %d records to put", n, len(b.bufs), len(b.crcs), len(b.recs))
	}
	for i, blk := range b.bufs {
		if len(blk) != len(b.bufs[0]) {
			return fmt.Errorf("blockserver: put block %d is %d bytes, the first %d", i, len(blk), len(b.bufs[0]))
		}
	}
	for i, rec := range b.recs {
		if len(rec) != len(b.recs[0]) {
			return fmt.Errorf("blockserver: put record %d has %d CRCs, the first %d", i, len(rec), len(b.recs[0]))
		}
	}
	if len(b.recs) > 0 && len(b.recs[0]) > math.MaxUint8 {
		return fmt.Errorf("blockserver: %d-CRC put records, over the %d a put meta holds", len(b.recs[0]), math.MaxUint8)
	}
	return nil
}

// Get fetches a whole block: a range of length 0, to the block's end, for
// one name. The returned slice is pool-backed: pass it to Recycle once
// consumed to keep the read path allocation-free.
func (c *Client) Get(ctx context.Context, name string) ([]byte, error) {
	c.oneBatch(false).names.add(name)
	return c.single(ctx, opRange, [2]uint32{}, nil)
}

// GetRangeInto fetches len(dst) bytes starting at off directly into dst —
// how a parallel reader pulls only the data prefix of a Carousel block,
// scattered straight into its slot of the decode buffer. dst is fully
// overwritten on success; on error its contents are unspecified. It is
// ranges for one name.
func (c *Client) GetRangeInto(ctx context.Context, name string, off int, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	c.oneBatch(false).names.add(name)
	_, err := c.single(ctx, opRange, [2]uint32{uint32(off), uint32(len(dst))}, dst)
	return err
}

// ranges reads, in one exchange, the same range of several blocks — a
// batch of stripes' data prefixes from one source, say: len(dst[0]) bytes
// from off of the i-th block of names land in dst[i], and every dst[i]
// must be that long. verdicts[i] receives that block's verdict — nil,
// ErrNotFound, ErrCorrupt, or ErrRemote for a range outside the block.
// The returned error is the exchange's own (transport, timeout, or a
// refusal of the whole request); the verdicts hold only when it is nil,
// and a dst whose verdict is not nil holds nothing useful. Zero-length
// destinations read nothing and return at once, every verdict nil: on the
// wire, a range of length 0 reads to the block's end.
func (c *Client) ranges(ctx context.Context, names nameList, off int, dst [][]byte, verdicts []error) error {
	var length int
	for i, d := range dst {
		if length = len(dst[0]); len(d) != length {
			return fmt.Errorf("blockserver: range destination %d is %d bytes, the first %d", i, len(d), length)
		}
	}
	b := &nameBatch{names: names, bufs: dst, verdicts: verdicts}
	if err := b.mismatch(); err != nil || length == 0 {
		clear(verdicts)
		return err
	}
	return c.do(ctx, request{op: opRange, args: [2]uint32{uint32(off), uint32(length)}, batch: b})
}

// Chunk asks the server to compute its repair contribution for the failed
// block index; only blockSize/alpha bytes come back. The returned slice is
// pool-backed: pass it to Recycle once consumed. It is chunks for one
// name, dropping the block's stripe record: the server may not have
// verified the block, so a caller that cannot check what it rebuilds asks
// Verify too.
func (c *Client) Chunk(ctx context.Context, name string, helper, failed int) ([]byte, error) {
	c.oneBatch(false).names.add(name)
	return c.single(ctx, opChunk, [2]uint32{uint32(helper), uint32(failed)}, nil)
}

// single runs an exchange of the client's one-name batch, whose name the
// caller has added (oneBatch), and whose verdict is its error: a put of
// dst, or a delete, range, chunk or verify. A range's or chunk's answer
// lands in dst or, when dst is nil, in a pooled buffer sized by the
// answer, which it returns when the verdict is OK (readVerdicts pools it
// again otherwise).
func (c *Client) single(ctx context.Context, op byte, args [2]uint32, dst []byte) ([]byte, error) {
	b := &c.one.b
	b.bufs = append(b.bufs, dst)
	err := c.do(ctx, request{op: op, args: args, batch: b})
	buf, verdict := b.bufs[0], b.verdicts[0]
	c.clearOne()
	if err != nil {
		return nil, err
	}
	return buf, verdict
}

// chunks asks the server, in one exchange, for its repair contributions to
// several blocks that share one (helper, failed) pair and one block size:
// the chunk of the i-th block of names lands in dst[i], which must be
// exactly the chunk size, and verdicts[i] receives that block's verdict —
// nil, ErrNotFound, ErrCorrupt, or ErrRemote for a block whose size
// differs from the first OK one's. The returned error is the exchange's
// own (transport, timeout, or a refusal of the whole request); the
// verdicts hold only when it is nil, and a dst whose verdict is not nil
// holds nothing useful.
//
// A chunk whose block the server did not verify first comes with the
// block's stripe record (see puts), which lands in recs[i], reusing its
// storage; recs[i] is left empty for a chunk of a verified block and for
// a name whose verdict is not nil. Whoever rebuilds the failed block from
// such chunks checks it against entry failed of their records, and asks
// their servers to Verify when it does not match. recs may be nil when the
// caller will not.
func (c *Client) chunks(ctx context.Context, names nameList, helper, failed int, dst [][]byte, recs [][]uint32, verdicts []error) error {
	b := &nameBatch{names: names, bufs: dst, verdicts: verdicts, recs: recs}
	if err := b.mismatch(); err != nil {
		return err
	}
	return c.do(ctx, request{op: opChunk, args: [2]uint32{uint32(helper), uint32(failed)}, batch: b})
}

// mismatch is the error of a batch whose lists differ in length, or nil.
func (b *nameBatch) mismatch() error {
	n := b.names.count
	if n == 0 || len(b.bufs) != n || len(b.verdicts) != n || b.recs != nil && len(b.recs) != n {
		return fmt.Errorf("blockserver: %d names, %d destinations, %d record slots and %d verdict slots", n, len(b.bufs), len(b.recs), len(b.verdicts))
	}
	return nil
}

// rebuild asks the server at req.Addrs[req.Failed], the newcomer, to
// rebuild its block of each of the request's stripes from d helper chunks
// it fetches itself, and to store it: one exchange for a batch of
// repairs, whose answer is every stripe's outcome and winning traffic and
// every helper's winning chunks. Each attempt tells the newcomer its
// deadline, which the newcomer answers within, so a live newcomer is never
// a timeout. A newcomer stores the same blocks however often it is asked,
// so a retried rebuild is safe. The returned error is the exchange's own
// (transport, timeout, or a refusal of the whole request: a server never
// started); the stripes' outcomes hold only when it is nil.
func (c *Client) rebuild(ctx context.Context, req *rebuildRequest) (*rebuildResult, error) {
	if err := req.check(); err != nil {
		return nil, err
	}
	res := &rebuildResult{Errs: make([]error, len(req.Stripes)), Traffic: make([]int, len(req.Stripes)), Chunks: make([]int64, len(req.Addrs))}
	if err := c.do(ctx, request{op: opRebuild, rb: &rebuildCall{req: req, res: res}}); err != nil {
		return nil, err
	}
	return res, nil
}

// readRebuild reads an OK rebuild answer into rb.res: its meta is
// measured against the request before the failure texts it promises are
// read.
func (c *Client) readRebuild(h frame.Header, rb *rebuildCall) error {
	want, err := parseRebuildAnswer(h.Meta, len(rb.req.Stripes), len(rb.req.Addrs))
	if err != nil {
		return err
	}
	if h.Len != want {
		return fmt.Errorf("blockserver: %d-byte rebuild answer for %d bytes of failures", h.Len, want)
	}
	texts := bufpool.Get(h.Len)
	defer bufpool.Put(texts)
	if err := c.fr.Payload(h, texts); err != nil {
		return err
	}
	fillRebuildResult(h.Meta, texts, rb.res)
	return nil
}

// Delete removes a block.
func (c *Client) Delete(ctx context.Context, name string) error {
	c.oneBatch(false).names.add(name)
	_, err := c.single(ctx, opDelete, [2]uint32{}, nil)
	return err
}

// Verify asks the server to re-checksum a block in place; it returns nil
// for an intact block, ErrCorrupt for detected bit rot, ErrNotFound for a
// missing block. It is verifies for one name, dropping the block's stripe
// record.
func (c *Client) Verify(ctx context.Context, name string) error {
	c.oneBatch(false).names.add(name)
	_, err := c.single(ctx, opVerify, [2]uint32{}, nil)
	return err
}

// verifies is Verify for several blocks in one exchange — a scrub's blocks
// of a batch of stripes on one server, say: verdicts[i] receives the i-th
// block of names' verdict and recs[i] (recs may be nil), reusing its
// storage, the stripe record an intact block was put with (see puts), if
// it has one of the server's code's width. The returned error is the
// exchange's own; the verdicts hold only when it is nil.
func (c *Client) verifies(ctx context.Context, names nameList, recs [][]uint32, verdicts []error) error {
	b := &nameBatch{names: names, bufs: make([][]byte, names.count), verdicts: verdicts, recs: recs}
	if err := b.mismatch(); err != nil {
		return err
	}
	return c.do(ctx, request{op: opVerify, batch: b})
}
