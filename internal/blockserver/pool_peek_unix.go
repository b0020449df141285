//go:build unix

package blockserver

import "syscall"

// peekStale probes c's connection with a non-blocking MSG_PEEK through
// the RawConn kept from its dial: nothing consumed, nothing blocked on,
// nothing allocated. ok reports whether the probe ran (Read returns nil
// only once it has); when it did, stale is true for readable bytes (the
// stream desynced while parked) and for EOF or any socket error (the peer
// dropped the connection).
func peekStale(c *Client) (stale, ok bool) {
	if c.probe == nil {
		c.probe = c.peek // bound once: a method value per probe escapes into Read
	}
	ok = c.raw != nil && c.raw.Read(c.probe) == nil
	return ok && c.peekedStale, ok
}

// peek is the probe, run by RawConn.Read on the connection's descriptor.
func (c *Client) peek(fd uintptr) bool {
	var b [1]byte
	n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	// Only "nothing to read" is a healthy idle connection; see peekStale.
	c.peekedStale = n > 0 || (err != syscall.EAGAIN && err != syscall.EWOULDBLOCK)
	return true // never wait for readability
}
