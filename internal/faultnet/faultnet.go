// Package faultnet is a fault-injection harness for the TCP block path: a
// wrappable net.Listener whose accepted connections can be delayed,
// blackholed, corrupted, cut after a byte budget, or rejected outright,
// per-peer and mutable at runtime. Tests use it to build deterministic
// kill/slow/corrupt matrices over real sockets; blockserverd exposes the
// same policies behind -fault-* flags so a deployed cluster can be
// exercised the same way.
//
// Policies are evaluated on every Read/Write, so changing a policy affects
// connections already in flight — exactly what a mid-read straggler test
// needs.
package faultnet

import (
	"net"
	"sync"
	"time"
)

// Policy describes the faults injected on connections it applies to. The
// zero Policy is transparent.
type Policy struct {
	// RejectConn closes new connections immediately after accept,
	// simulating a network partition from the affected peer.
	RejectConn bool
	// Blackhole makes every Read and Write hang until the connection is
	// closed: the peer is reachable but silent, the classic straggler that
	// only deadlines can defeat.
	Blackhole bool
	// DelayRead/DelayWrite add latency before each Read/Write call on the
	// wrapped connection. A response is typically several writes (status,
	// frame header, payload), so the observed per-operation delay is a
	// small multiple of DelayWrite.
	DelayRead  time.Duration
	DelayWrite time.Duration
	// CorruptWrites flips one bit in every outgoing write of at least
	// corruptMinLen bytes. Frame headers are long enough to be hit, not
	// spared: each carries its own CRC32C, so header and payload damage
	// alike are caught by checksum verification instead of desyncing the
	// stream.
	CorruptWrites bool
	// CutAfterBytes closes the connection after roughly this many bytes
	// have been written to the peer (0 = never), simulating a mid-transfer
	// crash.
	CutAfterBytes int64
}

// corruptMinLen is the smallest write CorruptWrites touches.
const corruptMinLen = 16

// Injector owns the fault policies for one listener: a default policy plus
// per-peer-host overrides. All methods are safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	def     Policy
	perPeer map[string]Policy
}

// NewInjector returns an injector with a transparent default policy.
func NewInjector() *Injector {
	return &Injector{perPeer: make(map[string]Policy)}
}

// SetDefault replaces the policy applied to peers without an override.
func (in *Injector) SetDefault(p Policy) {
	in.mu.Lock()
	in.def = p
	in.mu.Unlock()
}

// SetPeer sets the policy for connections from the given host (the IP part
// of the remote address).
func (in *Injector) SetPeer(host string, p Policy) {
	in.mu.Lock()
	in.perPeer[host] = p
	in.mu.Unlock()
}

// ClearPeer removes a per-peer override.
func (in *Injector) ClearPeer(host string) {
	in.mu.Lock()
	delete(in.perPeer, host)
	in.mu.Unlock()
}

// policyFor resolves the policy for a remote address.
func (in *Injector) policyFor(remote net.Addr) Policy {
	host, _, err := net.SplitHostPort(remote.String())
	in.mu.Lock()
	defer in.mu.Unlock()
	if err == nil {
		if p, ok := in.perPeer[host]; ok {
			return p
		}
	}
	return in.def
}

// Wrap returns a listener whose accepted connections are subject to the
// injector's policies.
func (in *Injector) Wrap(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

// Accept wraps the next connection, applying RejectConn immediately.
func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.in.policyFor(c.RemoteAddr()).RejectConn {
			c.Close()
			continue
		}
		return &conn{Conn: c, in: l.in, closed: make(chan struct{})}, nil
	}
}

// WrapConn applies the injector's policies to one already-established
// connection — the client-side counterpart of Wrap, for chaos tests that
// need to partition an outbound control or heartbeat connection without
// touching the server's listener. The injected policy is resolved against
// the connection's remote address, so per-peer overrides target the
// server being dialed.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	return &conn{Conn: c, in: in, closed: make(chan struct{})}
}

// conn applies the injector's live policy on every Read/Write.
type conn struct {
	net.Conn
	in *Injector

	closeOnce sync.Once
	closed    chan struct{}

	mu      sync.Mutex
	written int64
	cut     bool
}

// Close unblocks any blackholed or delayed operations and closes the
// underlying connection.
func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// pause sleeps d (or until the conn closes), returning false once closed.
// Blackholed operations pass d <= 0 and poll so that policy changes lift
// the blackhole on live connections.
func (c *conn) pause(d time.Duration) bool {
	if d <= 0 {
		d = 5 * time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.closed:
		return false
	case <-t.C:
		return true
	}
}

// gate applies blackhole and delay before an I/O call, returning false when
// the connection closed while waiting.
func (c *conn) gate(delay func(Policy) time.Duration) bool {
	for {
		p := c.in.policyFor(c.Conn.RemoteAddr())
		if p.Blackhole {
			if !c.pause(0) {
				return false
			}
			continue
		}
		if d := delay(p); d > 0 {
			return c.pause(d)
		}
		return true
	}
}

func (c *conn) Read(b []byte) (int, error) {
	if !c.gate(func(p Policy) time.Duration { return p.DelayRead }) {
		return 0, net.ErrClosed
	}
	return c.Conn.Read(b)
}

func (c *conn) Write(b []byte) (int, error) {
	if !c.gate(func(p Policy) time.Duration { return p.DelayWrite }) {
		return 0, net.ErrClosed
	}
	p := c.in.policyFor(c.Conn.RemoteAddr())

	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	cutAt := int64(-1)
	if p.CutAfterBytes > 0 {
		cutAt = p.CutAfterBytes - c.written
		if cutAt < 0 {
			cutAt = 0
		}
	}
	c.mu.Unlock()

	if cutAt == 0 {
		c.markCut()
		return 0, net.ErrClosed
	}
	out := b
	if cutAt > 0 && int64(len(b)) > cutAt {
		out = b[:cutAt]
	}
	if p.CorruptWrites && len(out) >= corruptMinLen {
		tmp := make([]byte, len(out))
		copy(tmp, out)
		tmp[len(tmp)/2] ^= 0x01
		out = tmp
	}
	n, err := c.Conn.Write(out)
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
	if err == nil && len(out) < len(b) {
		// The byte budget ran out mid-write: cut the connection.
		c.markCut()
		return n, net.ErrClosed
	}
	return n, err
}

// markCut closes the connection once the write budget is exhausted.
func (c *conn) markCut() {
	c.mu.Lock()
	already := c.cut
	c.cut = true
	c.mu.Unlock()
	if !already {
		c.Close()
	}
}
