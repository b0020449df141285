package blockserver

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPerPeer is the per-peer connection budget when PoolOptions leaves
// PerPeer zero. One stripe in flight uses at most one client per peer, so
// the default is 4, the Store's stripesInFlight.
const DefaultPerPeer = 4

// ErrPoolClosed is returned by Pool.Get after Close.
var ErrPoolClosed = errors.New("blockserver: pool is closed")

// peerDownWindow is how long a peer nobody could connect to is presumed
// down before one caller is let through to try again. Why 1s: two orders
// of magnitude above a loopback stripe, so a dead peer costs a pass of
// stripes one refused dial a second instead of a retry policy each, and
// short enough that a restarted server is back in the read plan before an
// operator looks.
const peerDownWindow = time.Second

// PoolOptions tunes a connection pool.
type PoolOptions struct {
	// PerPeer bounds how many clients a peer keeps, busy plus idle. Zero
	// or negative means DefaultPerPeer.
	PerPeer int
	// Client configures every pooled client.
	Client Options
}

// peer is one server's slot set: a buffered channel holding PerPeer
// entries, each either a parked client (connection kept warm) or a nil
// token (the right to build a fresh client). Checkouts take an entry,
// returns park one, so the busy+idle total can never exceed PerPeer and a
// checkout under exhaustion blocks until a client comes back or the
// caller's context gives up.
type peer struct {
	pool  *Pool
	addr  string
	free  chan *Client
	dials atomic.Int64

	// The failure memory. downUntil is zero while the peer is presumed up;
	// otherwise it is the unix-nanosecond time until which planners are
	// told to work around it (down), after which the caller that moves it
	// a window on may dial the peer once (half-open). probes counts those
	// dials.
	downUntil atomic.Int64
	probes    atomic.Int64
}

// dialed records a connection established to the peer: it is up.
func (pe *peer) dialed() {
	pe.dials.Add(1)
	if pe.downUntil.Load() != 0 && pe.downUntil.Swap(0) != 0 {
		pe.pool.down.Add(-1)
	}
}

// unreachable records that no connection to the peer could be established
// by a caller that was still waiting for one: it is presumed down for
// peerDownWindow from now.
func (pe *peer) unreachable() {
	if pe.downUntil.Swap(time.Now().Add(peerDownWindow).UnixNano()) == 0 {
		pe.pool.down.Add(1)
	}
}

// Pool is a bounded per-peer client pool shared by every stage of the
// stripe engine: stripe reads and writes, scrub probes, repair helper
// fetches, and the stream adapters. Clients come out
// with their cancellation watcher stopped and are health-checked on
// checkout; a client poisoned mid-use (protocol desync, timeout) comes
// back with no connection and simply redials on its next call, mirroring
// the single-client behavior.
//
// The pool also remembers which peers could not be dialed (see reachable),
// so that operations free to choose their sources plan around a dead peer
// instead of each rediscovering it through the retry policy. The memory is
// advice: Get never refuses a peer on its account.
type Pool struct {
	opts PoolOptions

	// down counts the peers presumed down: the one word a planner loads to
	// learn that nothing is, which is all the memory costs a healthy pass.
	down atomic.Int32

	mu     sync.Mutex
	closed bool
	peers  map[string]*peer
}

// NewPool builds a pool over a peer set. Further peers are admitted
// lazily on first Get, so repair paths can reach spares without
// re-planning the pool.
func NewPool(addrs []string, opts PoolOptions) *Pool {
	if opts.PerPeer <= 0 {
		opts.PerPeer = DefaultPerPeer
	}
	p := &Pool{opts: opts, peers: make(map[string]*peer, len(addrs))}
	for _, a := range addrs {
		if _, ok := p.peers[a]; !ok {
			p.peers[a] = p.newPeer(a)
		}
	}
	return p
}

func (p *Pool) newPeer(addr string) *peer {
	pe := &peer{pool: p, addr: addr, free: make(chan *Client, p.opts.PerPeer)}
	for i := 0; i < p.opts.PerPeer; i++ {
		pe.free <- nil
	}
	return pe
}

func (p *Pool) newClient(pe *peer) *Client {
	c := NewClient(pe.addr, p.opts.Client)
	c.peer = pe
	return c
}

// peer resolves (or lazily admits) a peer's slot set.
func (p *Pool) peer(addr string) (*peer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	pe := p.peers[addr]
	if pe == nil {
		pe = p.newPeer(addr)
		p.peers[addr] = pe
	}
	return pe, nil
}

// Get checks a client out for addr, blocking until a slot frees up or ctx
// is done. The caller owns the client until Put; clients are
// single-goroutine, so each concurrent fetch checks out its own.
func (p *Pool) Get(ctx context.Context, addr string) (*Client, error) {
	pe, err := p.peer(addr)
	if err != nil {
		return nil, err
	}
	var c *Client
	var ok bool
	select {
	case c, ok = <-pe.free:
		if !ok {
			return nil, ErrPoolClosed
		}
	case <-ctx.Done():
		return nil, classify(ctx.Err())
	}
	if c == nil {
		c = p.newClient(pe)
	} else if staleIdle(c) {
		c.poison() // redials lazily on first use
	}
	return c, nil
}

// getParked is Get for a batch round's exchange, which holds one
// connection per source for the whole round: a parked connection is worth
// more to it than the right to dial one, so it trades a token for a client
// parked behind it, sending the token to the back, at most once round the
// slots. Get itself takes the slots in turn, dialing each token it meets,
// so a peer's connections reach the budget after that many checkouts; a
// batched read checks out one client per source, and through Get each of
// its first reads would dial past idle connections.
func (p *Pool) getParked(ctx context.Context, addr string) (*Client, error) {
	c, err := p.Get(ctx, addr)
	if err != nil || c.conn != nil {
		return c, err
	}
	pe, err := p.peer(addr)
	if err != nil {
		return c, nil
	}
	for range cap(pe.free) {
		var next *Client
		select {
		case n, ok := <-pe.free:
			if !ok {
				return c, nil // closed: the caller's next call says so
			}
			next = n
		default:
			return c, nil // nothing else is parked
		}
		if next != nil && next.conn != nil && !staleIdle(next) {
			p.Put(c) // the unconnected client goes back in the token's place
			return next, nil
		}
		if next == nil {
			next = p.newClient(pe) // a token, parked as the client Get would make of it
		}
		next.poison() // a stale connection redials on its next use, as Get's would
		p.Put(next)
	}
	return c, nil
}

// Put returns a checked-out client. With the pool closed the client is
// closed instead of parked. Parked clients hold no
// goroutines — the watcher is stopped and only restarts on the next call —
// so an idle pool is invisible to goroutine-leak checks.
func (p *Pool) Put(c *Client) {
	if c == nil {
		return
	}
	c.stopWatcher()
	p.mu.Lock()
	pe := p.peers[c.addr]
	if p.closed || pe == nil {
		p.mu.Unlock()
		c.Close()
		return
	}
	select {
	case pe.free <- c:
	default: // foreign client beyond the peer's budget
		p.mu.Unlock()
		c.Close()
		return
	}
	p.mu.Unlock()
}

// WithClient checks out a client for addr, runs fn, and returns it — the
// shape scrub probes, repair fetches, and writes use.
func (p *Pool) WithClient(ctx context.Context, addr string, fn func(*Client) error) error {
	c, err := p.Get(ctx, addr)
	if err != nil {
		return err
	}
	defer p.Put(c)
	return fn(c)
}

// anyDown reports whether any peer is presumed down. While none is, every
// peer is reachable and planners need not ask about each.
func (p *Pool) anyDown() bool { return p.down.Load() != 0 }

// reachable is the failure memory's one question: should an operation that
// can choose its sources plan to fetch from addr? A peer is presumed down
// from the moment a client's whole retry policy ends in a failed dial with
// its caller still waiting — never for an I/O timeout, an in-band verdict
// or a cancellation — and any successful dial clears that. While the
// window runs the answer is no, without touching the network. Once it has
// lapsed, the one caller whose compare-and-swap opens the next window is
// the half-open probe: a single dial, no retries, bounded by ctx, which
// parks the fresh connection and answers yes, or leaves the new window
// standing; everyone else keeps hearing no. There is no background
// goroutine: a peer nobody asks about is never dialed.
func (p *Pool) reachable(ctx context.Context, addr string) bool {
	pe, err := p.peer(addr)
	if err != nil {
		return true // closed: Get says so
	}
	until := pe.downUntil.Load()
	if until == 0 {
		return true
	}
	now := time.Now()
	if now.UnixNano() < until || !pe.downUntil.CompareAndSwap(until, now.Add(peerDownWindow).UnixNano()) {
		return false
	}
	var c *Client
	select {
	case c = <-pe.free: // a nil token, a parked client, or nil from a closed pool
	default:
		return false // every slot is out dialing it already
	}
	if c == nil {
		c = p.newClient(pe)
	}
	defer p.Put(c) // parks it, or closes it if the pool was closed meanwhile
	c.poison()
	pe.probes.Add(1)
	_, err = c.ensure(ctx)
	return err == nil
}

// DialCounts snapshots per-peer dial totals — how tests and ReadStats
// prove connection reuse.
func (p *Pool) DialCounts() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.peers))
	for a, pe := range p.peers {
		out[a] = pe.dials.Load()
	}
	return out
}

// Close closes every idle client and fails pending and future checkouts.
// Busy clients are closed as they come back through Put.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, pe := range p.peers {
		close(pe.free)
		for c := range pe.free {
			if c != nil {
				c.Close()
			}
		}
	}
}

// staleIdle probes a parked connection without consuming protocol bytes.
// A healthy idle connection has nothing readable; readable bytes mean the
// stream desynced while parked, EOF or any error means the peer dropped
// it. The probe is a non-blocking MSG_PEEK where the platform supports it;
// elsewhere it falls back to a read bounded by a near-immediate deadline
// (the deadline must lie in the future — Go's poller fails an
// already-expired deadline before issuing the read, so an expired-deadline
// probe would never see the FIN).
func staleIdle(c *Client) bool {
	if c.conn == nil {
		return false // nothing to go stale; first call dials
	}
	if stale, ok := peekStale(c.conn); ok {
		return stale
	}
	c.conn.SetReadDeadline(time.Now().Add(time.Millisecond))
	var b [1]byte
	n, err := c.conn.Read(b[:])
	if n > 0 {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.conn.SetReadDeadline(time.Time{})
		return false
	}
	return true
}
