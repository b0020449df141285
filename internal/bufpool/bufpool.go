// Package bufpool is a size-classed free list of byte slices for the hot
// I/O paths: wire frames, stripe prefixes, and decode scratch. Unlike
// sync.Pool it survives garbage collections (so allocation-regression
// tests are deterministic) and it never boxes a slice header into an
// interface, so Put itself is allocation-free. Buffers are grouped into
// power-of-two classes; each class is split into independently locked
// shards so concurrent Get/Put traffic from many pipeline goroutines does
// not serialize on one mutex per size. A Get that misses its first shard
// steals from the others before allocating, and a Put that finds its shard
// full files the buffer in any shard with room, so the sharding changes
// contention, not the hit rate. Retention stays bounded per class; a
// dropped buffer is reclaimed by the GC instead of growing the pool
// without bound.
//
// Ownership is explicit: Get hands the caller exclusive use of the slice,
// and Put must only be called once the caller is done with it. Forgetting
// to Put is safe (the buffer is garbage collected, the pool just misses a
// reuse); double-Put is a caller bug that aliases two owners.
package bufpool

import (
	"math/bits"
	"math/rand/v2"
	"sync"

	"carousel/internal/obs"
)

const (
	// minClassBits is the smallest class (64 B): tinier buffers are cheaper
	// to allocate than to synchronize on.
	minClassBits = 6
	// maxClassBits is the largest class (64 MiB): anything bigger goes
	// straight to the allocator.
	maxClassBits = 26
	// nshards splits each class's free list; must be a power of two so the
	// shard pick is a mask, not a division.
	nshards = 8
	// maxPerShard bounds retention per shard; the per-class bound is
	// nshards * maxPerShard = 64, same as the unsharded pool kept.
	maxPerShard = 8
)

// mDrops counts buffers Put found no room for: a class at its retention
// bound, the one pool event that costs a later allocation. Hits and misses
// are not counted — the allocation-regression tests and the benchmark's
// alloc_bytes_per_user_byte measure what a miss costs directly.
var mDrops = obs.Default().Counter("bufpool_drops_total")

// shard is one independently locked LIFO stack. The backing array is fixed
// size so pushes never allocate (append on a [][]byte would), keeping Put
// allocation-free by construction rather than by amortization.
type shard struct {
	mu   sync.Mutex
	n    int
	bufs [maxPerShard][]byte
}

// tryGet pops the top buffer, or returns nil if the shard is empty.
func (s *shard) tryGet() []byte {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return nil
	}
	s.n--
	b := s.bufs[s.n]
	s.bufs[s.n] = nil
	s.mu.Unlock()
	return b
}

// tryPut pushes b, or reports false if the shard is full.
func (s *shard) tryPut(b []byte) bool {
	s.mu.Lock()
	if s.n == maxPerShard {
		s.mu.Unlock()
		return false
	}
	s.bufs[s.n] = b
	s.n++
	s.mu.Unlock()
	return true
}

// class is one size class: nshards bounded stacks.
type class struct {
	shards [nshards]shard
}

var classes [maxClassBits + 1]class

// pick returns a pseudo-random shard index. math/rand/v2's global
// generator uses per-m state, so concurrent callers don't contend here —
// that would defeat the point of sharding.
func pick() int {
	return int(rand.Uint32() & (nshards - 1))
}

// classFor returns the class index whose capacity (1<<idx) is the smallest
// one holding n bytes, clamped below at minClassBits.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return minClassBits
	}
	return bits.Len(uint(n - 1))
}

// Get returns a slice of length n with exclusive ownership. The contents
// are unspecified (reused buffers carry stale bytes); callers must
// overwrite the full length before reading it.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := classFor(n)
	if c > maxClassBits {
		return make([]byte, n)
	}
	cl := &classes[c]
	// Try a random home shard first, then steal from the rest: a buffer
	// parked anywhere in the class must be found before we allocate, or
	// sharding would cost hit rate.
	start := pick()
	for i := 0; i < nshards; i++ {
		if b := cl.shards[(start+i)&(nshards-1)].tryGet(); b != nil {
			return b[:n]
		}
	}
	return make([]byte, n, 1<<c)
}

// Put returns a buffer to its class. Buffers whose capacity falls below
// the smallest class (or that are nil) are dropped. A buffer of foreign
// origin is filed under the largest class its capacity fully covers, so a
// later Get can always slice its requested length out of it.
func Put(b []byte) {
	c := bits.Len(uint(cap(b))) - 1 // floor log2: 1<<c <= cap(b)
	if c < minClassBits {
		return
	}
	if c > maxClassBits {
		c = maxClassBits
	}
	cl := &classes[c]
	start := pick()
	for i := 0; i < nshards; i++ {
		if cl.shards[(start+i)&(nshards-1)].tryPut(b) {
			return
		}
	}
	mDrops.Inc()
}
