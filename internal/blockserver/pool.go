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
// PerPeer zero. One stripe pipeline stage uses at most one client per
// peer, so the default matches the default pipeline depth.
const DefaultPerPeer = 4

// ErrPoolClosed is returned by Pool.Get after Close.
var ErrPoolClosed = errors.New("blockserver: pool is closed")

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
	addr  string
	free  chan *Client
	dials atomic.Int64
}

// Pool is a bounded per-peer client pool shared by every stage of the
// stripe engine: the hedged parallel read, the any-k fallback, scrub
// probes, repair helper fetches, and the stream adapters. Clients come out
// with their cancellation watcher stopped and are health-checked on
// checkout; a client poisoned mid-use (protocol desync, timeout) comes
// back with no connection and simply redials on its next call, mirroring
// the single-client behavior.
type Pool struct {
	opts PoolOptions

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
	pe := &peer{addr: addr, free: make(chan *Client, p.opts.PerPeer)}
	for i := 0; i < p.opts.PerPeer; i++ {
		pe.free <- nil
	}
	return pe
}

func (p *Pool) newClient(pe *peer) *Client {
	c := NewClient(pe.addr, p.opts.Client)
	c.dials = &pe.dials
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
