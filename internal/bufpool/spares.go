package bufpool

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Spares is a bounded list of exact-size buffers that an owner of
// long-lived buffers lands new contents in, so the memory it retires is
// reused, not reallocated. The size classes cannot stand in for it: they
// round a buffer up to a power of two, so a store of odd-sized blocks would
// hold up to half as much again.
type Spares struct {
	mu   sync.Mutex
	max  int
	bufs [][]byte
}

// NewSpares returns a list that keeps at most max buffers.
func NewSpares(max int) *Spares { return &Spares{max: max} }

// Give puts buffers no one holds any more on the list, which forgets its
// oldest beyond its bound.
func (sp *Spares) Give(bufs ...[]byte) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.bufs = append(sp.bufs, bufs...); len(sp.bufs) > sp.max {
		sp.bufs = slices.Delete(sp.bufs, 0, len(sp.bufs)-sp.max)
	}
}

// Take appends n size-byte buffers to dst, the newest spares of that size
// first and fresh allocations after them, and returns how many were fresh.
// A spare keeps the bytes it last held: the caller overwrites all of it.
func (sp *Spares) Take(dst [][]byte, n, size int) ([][]byte, int) {
	sp.mu.Lock()
	for i := len(sp.bufs) - 1; i >= 0 && n > 0; i-- {
		if len(sp.bufs[i]) == size {
			dst, n = append(dst, sp.bufs[i]), n-1
			sp.bufs = slices.Delete(sp.bufs, i, i+1)
		}
	}
	sp.mu.Unlock()
	for range n {
		dst = append(dst, make([]byte, size))
	}
	return dst, n
}

// Provision puts up to n fresh size-byte buffers on the list, within its
// bound: what a caller had to allocate for want of spares, kept for the
// next caller who will.
func (sp *Spares) Provision(n, size int) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for ; n > 0 && len(sp.bufs) < sp.max; n-- {
		sp.bufs = append(sp.bufs, make([]byte, size))
	}
}

// Hold leases one buffer to its owner's readers: it counts the readers
// below a retired flag, which the owner sets once no new reader can find
// the buffer. Whichever of Retire and the last Unpin sees "retired, no
// readers" reports it, and its caller gives the buffer (with whatever it
// belongs to) to the owner's spares, so no spare is a buffer a reader
// still copies out of. The zero Hold has no readers.
type Hold struct{ n atomic.Int64 }

const retired = 1 << 32

// Pin counts a reader in; the owner must not have retired the buffer.
func (h *Hold) Pin() { h.n.Add(1) }

// Unpin counts a reader out and reports whether it was the last reader of
// a retired buffer, which is then the caller's to spare.
func (h *Hold) Unpin() (spare bool) { return h.n.Add(-1) == retired }

// Retire sets the flag and reports whether no reader holds the buffer,
// which is then the caller's to spare.
func (h *Hold) Retire() (spare bool) { return h.n.Add(retired) == retired }
