// Package stripecache is a sharded, size-bounded, in-process cache of
// decoded stripes for the hot-read path. Real object populations are
// Zipf-skewed: a small hot set absorbs most reads, and without a cache
// every one of those reads re-ships k chunks across the cluster and
// re-runs the decode. The cache trades a bounded slice of client memory
// for that repeated network and CPU cost.
//
// Three properties drive the design:
//
//   - Scan resistance: admission is S3-FIFO-style. New entries land in a
//     small probationary FIFO; only entries re-referenced while
//     probationary graduate to the main queue, and keys recently evicted
//     from probation are remembered in a ghost list so a genuine re-miss
//     re-enters the main queue directly. A one-pass cold scan therefore
//     churns the small queue and cannot evict the resident hot set.
//
//   - Structural freshness: keys embed a per-file version counter.
//     Writers bump the version (WriteFile, recovery's repair batches),
//     which makes every cached stripe of the prior version unreachable in
//     one atomic step — a stale hit is impossible by construction rather
//     than by careful locking.
//
//   - Miss coalescing: N concurrent misses on the same stripe run exactly
//     one fetch+decode (singleflight). The result — or the error — fans
//     out to every waiter, and a waiter whose context is cancelled
//     detaches without poisoning the flight for the others.
//
// Entries are []byte values outside the buffer pool, immutable while
// resident: a hit pins its entry and copies outside the shard lock, and a
// miss's flight fetches into the buffer of an entry the shard retired once
// no reader pins it, so cold churn allocates no stripe bytes.
package stripecache

import (
	"sync"
	"sync/atomic"

	"carousel/internal/bufpool"
)

// Key identifies one cached decoded stripe. Version is the per-file
// write-generation counter: a bumped version changes every stripe's key,
// which is how invalidation works without touching entries.
type Key struct {
	File    string
	Stripe  int
	Version uint64
}

// entry is one resident stripe. data is immutable while resident; freq is
// the S3-FIFO access counter (capped, decayed on main-queue laps); hold
// leases data to the readers copying out of it (hits, a finished flight's
// waiters) until removeLocked retires it, and home takes data once unread:
// its shard's spares for a flight's buffer, nil for a Put's, never reused.
type entry struct {
	key  Key
	data []byte
	freq atomic.Int32
	hold bufpool.Hold
	home *bufpool.Spares
}

// maxSpares bounds a shard's spare list.
const maxSpares = 2

// maxFreq caps the access counter so one burst of popularity cannot make
// an entry immortal: it survives at most maxFreq main-queue laps without
// a fresh reference.
const maxFreq = 3

// shard is one lock domain of the cache.
type shard struct {
	mu    sync.Mutex
	items map[Key]*entry
	small []*entry // probationary FIFO, append = tail
	main  []*entry // resident FIFO
	// ghost remembers keys recently evicted from the probationary queue
	// (bounded ring): a re-miss on a ghost key goes straight to main.
	ghost     map[Key]struct{}
	ghostRing []Key
	ghostNext int
	bytes     int64 // resident bytes (small + main)

	flights map[Key]*Flight
	idle    []*Flight       // released flights, for the next miss (leaseLocked)
	spares  *bufpool.Spares // buffers of retired flight entries, for the next flight
}

// Stats is a point-in-time view of one cache instance.
type Stats struct {
	Hits             int64
	Misses           int64
	Evictions        int64
	Inserts          int64
	CoalescedWaiters int64
	Bytes            int64
	Capacity         int64
}

// Cache is the sharded stripe cache. The zero value is not usable; build
// one with New.
type Cache struct {
	shards   []shard
	capacity int64 // total byte budget across shards
	perShard int64
	smallCap int64 // per-shard probationary budget

	// versions maps file -> *atomic.Uint64 write-generation counter.
	versions sync.Map

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	inserts   atomic.Int64
	coalesced atomic.Int64
	bytes     atomic.Int64
}

// numShards spreads lock contention; a power of two keeps the index a
// mask. 16 shards is plenty for a per-process client cache.
const numShards = 16

// smallFraction is the probationary queue's share of each shard's budget
// (the S3-FIFO paper's ~10%).
const smallFraction = 10

// ghostEntries bounds the per-shard ghost ring; ghosts are keys only, so
// this is a few KiB of memory for minutes of eviction history.
const ghostEntries = 1024

// New builds a cache with the given total byte capacity. Capacities
// smaller than one stripe still work — such a cache just never admits
// anything, which keeps the option plumbing uniform.
func New(capacityBytes int64) *Cache {
	if capacityBytes < 0 {
		capacityBytes = 0
	}
	c := &Cache{
		shards:   make([]shard, numShards),
		capacity: capacityBytes,
		perShard: capacityBytes / numShards,
	}
	c.smallCap = c.perShard / smallFraction
	for i := range c.shards {
		c.shards[i].items = make(map[Key]*entry)
		c.shards[i].ghost = make(map[Key]struct{})
		c.shards[i].ghostRing = make([]Key, 0, ghostEntries)
		c.shards[i].flights = make(map[Key]*Flight)
		c.shards[i].spares = bufpool.NewSpares(maxSpares)
	}
	return c
}

// Capacity reports the configured byte budget.
func (c *Cache) Capacity() int64 { return c.capacity }

// Stats snapshots this instance's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Evictions:        c.evictions.Load(),
		Inserts:          c.inserts.Load(),
		CoalescedWaiters: c.coalesced.Load(),
		Bytes:            c.bytes.Load(),
		Capacity:         c.capacity,
	}
}

// Version returns the current write generation of a file (0 for a file
// never invalidated).
func (c *Cache) Version(file string) uint64 {
	if v, ok := c.versions.Load(file); ok {
		return v.(*atomic.Uint64).Load()
	}
	return 0
}

// Invalidate bumps the file's write generation, making every cached
// stripe of the prior version structurally unreachable, then drops those
// stale entries so they stop occupying budget. Callers on the write path
// bump once before mutating blocks (readers mid-flight insert under the
// old, now-unreachable version) and once after (anything cached during
// the mutation window is discarded too).
func (c *Cache) Invalidate(file string) {
	v, _ := c.versions.LoadOrStore(file, new(atomic.Uint64))
	cur := v.(*atomic.Uint64).Add(1)
	// Proactive purge: versioned keys already guarantee correctness, this
	// just returns the stale bytes to the budget promptly.
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.items {
			if k.File == file && k.Version < cur {
				c.removeLocked(s, k)
			}
		}
		s.mu.Unlock()
	}
}

// shardFor hashes a key to its lock domain (FNV-1a over the file name
// folded with the stripe; version deliberately excluded so one file's
// generations stay on the same shards and purge scans stay warm).
func (c *Cache) shardFor(k Key) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.File); i++ {
		h ^= uint64(k.File[i])
		h *= prime64
	}
	h ^= uint64(k.Stripe)
	h *= prime64
	return &c.shards[h&(numShards-1)]
}

// Get copies the cached stripe for (file, stripe) at its current version
// into dst and reports whether it hit. dst must be exactly the stripe
// size; a size mismatch is treated as a miss.
func (c *Cache) Get(file string, stripe int, dst []byte) bool {
	key := Key{File: file, Stripe: stripe, Version: c.Version(file)}
	s := c.shardFor(key)
	s.mu.Lock()
	e := s.pinLocked(key, len(dst))
	s.mu.Unlock()
	if e == nil {
		c.misses.Add(1)
		return false
	}
	copy(dst, e.data) // outside the lock: the pin keeps the buffer off the spare list
	e.hold.Unpin(e.data, e.home)
	c.hits.Add(1)
	return true
}

// pinLocked is a hit: it counts the reference and pins the entry.
func (s *shard) pinLocked(key Key, size int) *entry {
	e := s.items[key]
	if e == nil || len(e.data) != size {
		return nil
	}
	if f := e.freq.Load(); f < maxFreq {
		e.freq.Store(f + 1)
	}
	e.hold.Pin()
	return e
}

// Put inserts a decoded stripe under the file's current version. The
// cache takes ownership of data, which must not be a pooled buffer and
// must not be mutated afterwards. Oversized entries (larger than a
// shard's budget) are not admitted.
func (c *Cache) Put(file string, stripe int, data []byte) {
	c.put(Key{File: file, Stripe: stripe, Version: c.Version(file)}, data, nil)
}

// put inserts data under key with its home spare list — a flight's stripe
// (home non-nil) comes in pinned, before eviction can reach it — and
// returns its entry, nil if it was not admitted.
func (c *Cache) put(key Key, data []byte, home *bufpool.Spares) *entry {
	size := int64(len(data))
	if size == 0 || size > c.perShard {
		return nil
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[key]; ok {
		return nil // raced with another insert of the same stripe
	}
	e := &entry{key: key, data: data, home: home}
	if home != nil {
		e.hold.Pin()
	}
	s.items[key] = e
	// S3-FIFO admission: keys remembered by the ghost list earned a main
	// slot (they were evicted from probation and missed again); everything
	// else starts probationary.
	if _, ok := s.ghost[key]; ok {
		delete(s.ghost, key)
		s.main = append(s.main, e)
	} else {
		s.small = append(s.small, e)
	}
	s.bytes += size
	c.bytes.Add(size)
	c.inserts.Add(1)
	c.evictLocked(s)
	return e
}

// evictLocked brings the shard back under budget: probation evicts first
// while it holds more than its share, graduating re-referenced entries to
// main; main uses second-chance (freq decay, reinsert at tail) so a hot
// resident survives cold churn.
func (c *Cache) evictLocked(s *shard) {
	for s.bytes > c.perShard {
		var smallBytes int64
		for _, e := range s.small {
			smallBytes += int64(len(e.data))
		}
		if len(s.small) > 0 && (smallBytes > c.smallCap || len(s.main) == 0) {
			e := s.small[0]
			s.small = s.small[1:]
			if s.items[e.key] != e {
				continue // removed by a purge (slot skipped lazily)
			}
			if e.freq.Load() > 0 {
				// Re-referenced while probationary: graduate.
				s.main = append(s.main, e)
				continue
			}
			c.removeLocked(s, e.key)
			s.addGhostLocked(e.key)
			continue
		}
		if len(s.main) == 0 {
			return
		}
		e := s.main[0]
		s.main = s.main[1:]
		if s.items[e.key] != e {
			continue
		}
		if f := e.freq.Load(); f > 0 {
			e.freq.Store(f - 1)
			s.main = append(s.main, e) // second chance
			continue
		}
		c.removeLocked(s, e.key)
	}
}

// removeLocked drops a resident entry from the shard map and the byte
// accounting, and retires it; its FIFO slot is skipped lazily.
func (c *Cache) removeLocked(s *shard, key Key) {
	e, ok := s.items[key]
	if !ok {
		return
	}
	delete(s.items, key)
	size := int64(len(e.data))
	s.bytes -= size
	c.bytes.Add(-size)
	c.evictions.Add(1)
	e.hold.Retire(e.data, e.home)
}

// addGhostLocked remembers an evicted probationary key in the bounded
// ghost ring.
func (s *shard) addGhostLocked(key Key) {
	if len(s.ghostRing) < ghostEntries {
		s.ghostRing = append(s.ghostRing, key)
	} else {
		old := s.ghostRing[s.ghostNext]
		delete(s.ghost, old)
		s.ghostRing[s.ghostNext] = key
		s.ghostNext = (s.ghostNext + 1) % ghostEntries
	}
	s.ghost[key] = struct{}{}
}
