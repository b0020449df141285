// Package stripecache is a sharded, size-bounded, in-process cache of
// decoded stripes for the hot-read path. Real object populations are
// Zipf-skewed: a small hot set absorbs most reads, and without a cache
// every one of those reads re-ships k chunks across the cluster and
// re-runs the decode. The cache trades a bounded slice of client memory
// for that repeated network and CPU cost.
//
// Three properties drive the design:
//
//   - Admission by frequency: each shard runs one CLOCK queue behind a
//     TinyLFU filter, a count-min sketch of how often each key was looked
//     up lately. A new stripe is admitted only if the sketch rates it
//     more frequent than the entry CLOCK would evict for it, so a
//     one-pass cold scan cannot evict the resident hot set, and a key
//     looked up once rarely displaces one looked up often.
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
// miss's flight fetches into an entry the shard retired once no reader
// pins it, buffer and all, so cold churn allocates no stripe and no entry.
package stripecache

import (
	"slices"
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

// entry is one stripe. data is immutable while resident; freq is the
// CLOCK reference count (capped, decayed on each lap); hold leases
// data to the readers copying out of it (hits, a flight's waiters) until
// the shard retires it. A flight's entry (spare set) then goes, buffer and
// all, to its shard's spares once unread, for a later flight to fetch
// into; a Put's is never reused.
type entry struct {
	key   Key
	data  []byte
	freq  atomic.Int32
	hold  bufpool.Hold
	spare bool
}

// maxSpares bounds a shard's spare list.
const maxSpares = 2

// fifo is the CLOCK queue, a queue of entries that keeps its capacity: pop
// advances its head, and a push into a full slice first slides the queue
// to its front. Every entry in it is resident (Invalidate compacts it
// after a purge).
type fifo struct {
	q    []*entry
	head int
}

func (f *fifo) push(e *entry) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, e)
}

func (f *fifo) pop() *entry {
	e := f.q[f.head]
	f.q[f.head] = nil
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return e
}

// keep drops the entries keep refuses, in place.
func (f *fifo) keep(keep func(e *entry) bool) {
	live := f.q[:0]
	for _, e := range f.q[f.head:] {
		if keep(e) {
			live = append(live, e)
		}
	}
	clear(f.q[len(live):])
	f.q, f.head = live, 0
}

// maxFreq caps the access counter so one burst of popularity cannot make
// an entry immortal: it survives at most maxFreq CLOCK laps without a
// fresh reference.
const maxFreq = 3

// The sketch: sketchRows rows of sketchWidth byte counters, each row
// indexed by its own sketchBits of a key's hash above the shard index's.
// A counter saturates at maxCount; a shard halves them all once it has
// done sampleFactor lookups per resident entry (minSample at least), so
// the sketch rates recent frequency.
const (
	sketchRows   = 4
	sketchBits   = 10
	sketchWidth  = 1 << sketchBits
	maxCount     = 15
	sampleFactor = 20
	minSample    = 256
)

// shard is one lock domain of the cache.
type shard struct {
	mu      sync.Mutex
	items   map[Key]*entry
	clock   fifo  // resident entries, in CLOCK order
	bytes   int64 // resident bytes
	sketch  [sketchRows][sketchWidth]uint8
	lookups int // since the sketch was last halved

	flights map[Key]*Flight
	idle    []*Flight // released flights, for the next miss (leaseLocked)
	spares  []*entry  // retired flight entries, unread, for the next flight, newest last
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
// mask of shardBits. 16 shards is plenty for a per-process client cache.
const (
	shardBits = 4
	numShards = 1 << shardBits
)

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
	for i := range c.shards {
		c.shards[i].items = make(map[Key]*entry)
		c.shards[i].flights = make(map[Key]*Flight)
		c.shards[i].spares = make([]*entry, 0, maxSpares+1)
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
		purged := false
		for k, e := range s.items {
			if k.File == file && k.Version < cur {
				c.removeLocked(s, e)
				purged = true
			}
		}
		if purged { // the queue holds resident entries alone: a retired one may be reused
			s.clock.keep(func(e *entry) bool { return s.items[e.key] == e })
		}
		s.mu.Unlock()
	}
}

// keyHash is FNV-1a over the file name folded with the stripe. The
// version is deliberately excluded, so one file's generations share a
// shard (purge scans stay warm) and a sketch count (a rewrite keeps its
// stripes' popularity).
func keyHash(k Key) uint64 {
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
	return h
}

// shardFor picks a key's lock domain by the low shardBits of its hash.
func (c *Cache) shardFor(k Key) *shard { return &c.shards[keyHash(k)&(numShards-1)] }

// counter is row r's sketch counter of the key hashed h.
func (s *shard) counter(h uint64, r int) *uint8 {
	return &s.sketch[r][h>>(shardBits+r*sketchBits)&(sketchWidth-1)]
}

// countLocked counts one lookup of key in the sketch, halving every
// counter at the end of each sample.
func (s *shard) countLocked(key Key) {
	h := keyHash(key)
	for r := range sketchRows {
		if p := s.counter(h, r); *p < maxCount {
			*p++
		}
	}
	if s.lookups++; s.lookups >= max(sampleFactor*len(s.items), minSample) {
		s.lookups = 0
		for r := range s.sketch {
			for i := range s.sketch[r] {
				s.sketch[r][i] >>= 1
			}
		}
	}
}

// frequencyLocked is the sketch's estimate of key's recent lookups, the
// least of its counters.
func (s *shard) frequencyLocked(key Key) uint8 {
	h, f := keyHash(key), uint8(maxCount)
	for r := range sketchRows {
		f = min(f, *s.counter(h, r))
	}
	return f
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
	copy(dst, e.data) // outside the lock: the pin keeps the entry off the spare list
	s.unpin(e)
	c.hits.Add(1)
	return true
}

// pinLocked counts a lookup of key and, on a hit, the entry's reference,
// and pins the entry.
func (s *shard) pinLocked(key Key, size int) *entry {
	s.countLocked(key)
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

// unpin ends a reader's copy out of e, outside the shard's lock, and
// spares e if it was the last reader of a retired flight entry.
func (s *shard) unpin(e *entry) {
	if e.hold.Unpin() && e.spare {
		s.mu.Lock()
		s.spareLocked(e)
		s.mu.Unlock()
	}
}

// retireLocked retires e, which no new reader can find any more, and
// spares it if it is a flight's entry that no reader holds.
func (s *shard) retireLocked(e *entry) {
	if e.hold.Retire() && e.spare {
		s.spareLocked(e)
	}
}

// spareLocked puts a retired, unread flight entry on the spare list,
// keeping its buffer and forgetting its key and history, and forgets the
// oldest spare beyond maxSpares.
func (s *shard) spareLocked(e *entry) {
	*e = entry{data: e.data, spare: true}
	if s.spares = append(s.spares, e); len(s.spares) > maxSpares {
		s.spares = slices.Delete(s.spares, 0, 1)
	}
}

// takeSpareLocked takes the newest spare entry of size bytes for a
// flight, or makes one. A spare keeps the stripe it last held: the fetch
// overwrites all of it.
func (s *shard) takeSpareLocked(size int) *entry {
	for i := len(s.spares) - 1; i >= 0; i-- {
		if e := s.spares[i]; len(e.data) == size {
			s.spares = slices.Delete(s.spares, i, i+1)
			return e
		}
	}
	return &entry{data: make([]byte, size), spare: true}
}

// Put inserts a decoded stripe under the file's current version, if the
// admission filter lets it in. The cache takes ownership of data, which
// must not be a pooled buffer and must not be mutated afterwards.
// Oversized entries (larger than a shard's budget) are not admitted.
func (c *Cache) Put(file string, stripe int, data []byte) {
	key := Key{File: file, Stripe: stripe, Version: c.Version(file)}
	if !c.admits(len(data)) {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	c.putLocked(s, key, &entry{data: data})
}

// admits reports whether an entry of size bytes may be admitted.
func (c *Cache) admits(size int) bool { return size > 0 && int64(size) <= c.perShard }

// putLocked inserts e under key and reports whether it did. It does not
// if the key is resident already (a race with another insert of the same
// stripe), or if the shard is full and the sketch rates the key no more
// frequent than the victim CLOCK sweeps to. A flight's entry comes in
// pinned, before eviction can reach it.
func (c *Cache) putLocked(s *shard, key Key, e *entry) bool {
	if _, ok := s.items[key]; ok {
		return false
	}
	size := int64(len(e.data))
	if s.bytes+size > c.perShard && s.frequencyLocked(key) <= s.frequencyLocked(s.victimLocked().key) {
		return false
	}
	e.key = key
	s.items[key] = e
	s.clock.push(e)
	s.bytes += size
	c.bytes.Add(size)
	c.inserts.Add(1)
	for s.bytes > c.perShard {
		s.victimLocked() // at the head
		c.removeLocked(s, s.clock.pop())
	}
	return true
}

// victimLocked advances the CLOCK hand to the next entry to evict, which
// it leaves at the queue's head: an entry referenced since the hand last
// passed loses one reference and goes round again.
func (s *shard) victimLocked() *entry {
	for {
		e := s.clock.q[s.clock.head]
		f := e.freq.Load()
		if f == 0 {
			return e
		}
		e.freq.Store(f - 1)
		s.clock.push(s.clock.pop())
	}
}

// removeLocked drops a resident entry from the shard map and the byte
// accounting, and retires it. Its caller takes it off its queue.
func (c *Cache) removeLocked(s *shard, e *entry) {
	delete(s.items, e.key)
	size := int64(len(e.data))
	s.bytes -= size
	c.bytes.Add(-size)
	c.evictions.Add(1)
	s.retireLocked(e)
}
