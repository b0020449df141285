package stripecache

import (
	"context"
)

// flight is one in-progress coalesced fetch+decode. All bookkeeping is
// guarded by the owning shard's mutex; data, err and entry are published
// by the close of done and read-only afterwards.
type flight struct {
	done chan struct{}
	data []byte
	err  error
	// entry is the stripe the flight inserted (nil if not admitted),
	// pinned until the last waiter detaches or, with none left, it ends.
	entry *entry

	// waiters counts callers currently blocked on done (the creator
	// included). When the last one detaches — result delivered or context
	// cancelled — cancel aborts the fetch context; a flight nobody is
	// waiting for has no reason to keep hammering the network.
	waiters  int
	cancel   context.CancelFunc
	finished bool
}

// GetOrFetch serves one stripe through the cache: a hit copies the cached
// bytes into dst; a miss joins (or starts) the singleflight for the
// stripe's current-version key, so N concurrent misses cost exactly one
// fetch+decode whose result — or error — fans out to every waiter.
//
// fetch runs in its own goroutine on a context derived from the first
// caller's (values such as trace IDs propagate; cancellation does not), so
// one waiter's cancellation never aborts the flight for the others. A
// waiter whose ctx expires detaches and returns ctx's error; only when
// the last waiter detaches is the fetch itself cancelled. On success the
// stripe is inserted into the cache under the version the flight was
// keyed by, and every waiter's dst receives a copy.
//
// The return reports whether the read was a direct cache hit and whether
// this caller coalesced onto a flight another caller started.
func (c *Cache) GetOrFetch(ctx context.Context, file string, stripe int, dst []byte,
	fetch func(ctx context.Context, dst []byte) error) (hit, coalescedWaiter bool, err error) {
	key := Key{File: file, Stripe: stripe, Version: c.Version(file)}
	s := c.shardFor(key)

	// Fast path: resident entry.
	s.mu.Lock()
	if e := s.pinLocked(key, len(dst)); e != nil {
		s.mu.Unlock()
		copy(dst, e.data)
		s.unpin(e)
		c.hits.Add(1)
		return true, false, nil
	}

	// Miss: join the flight for this key, or start one.
	f := s.flights[key]
	if f == nil {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		f = &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
		s.flights[key] = f
		s.mu.Unlock()
		c.misses.Add(1)
		go c.runFlight(fctx, s, key, f, len(dst), fetch)
	} else {
		f.waiters++
		coalescedWaiter = true
		s.mu.Unlock()
		c.misses.Add(1)
		c.coalesced.Add(1)
	}

	select {
	case <-f.done:
		if f.err == nil {
			copy(dst, f.data) // before detaching: the flight's pin covers it
		}
		c.detach(s, key, f)
		return false, coalescedWaiter, f.err
	case <-ctx.Done():
		c.detach(s, key, f)
		return false, coalescedWaiter, ctx.Err()
	}
}

// runFlight executes the coalesced fetch+decode, publishes the result,
// and retires the flight so later misses start fresh.
func (c *Cache) runFlight(fctx context.Context, s *shard, key Key, f *flight,
	size int, fetch func(ctx context.Context, dst []byte) error) {
	// The buffer is outside the pool: on success it becomes the cache
	// entry. fetch must write all of it: a spare holds an evicted stripe.
	buf := s.buffer(size)
	err := fetch(fctx, buf)
	var e *entry
	if err == nil {
		e = c.put(key, buf, 1)
	}
	s.mu.Lock()
	if err != nil {
		s.spareLocked(buf) // no waiter reads a failed flight's data
	}
	f.data, f.err, f.entry = buf, err, e
	f.finished = true
	abandoned := f.waiters == 0
	if s.flights[key] == f {
		delete(s.flights, key)
	}
	s.mu.Unlock()
	close(f.done)
	if abandoned && e != nil {
		s.unpin(e)
	}
}

// detach removes one waiter from a flight. The last waiter out cancels
// the fetch context: if the flight already finished that only releases
// the context's resources and the flight's pin, and if every waiter
// abandoned a still-running flight it aborts a fetch nobody wants. A
// dying flight is removed from the shard's flight table under the same
// lock, so a caller arriving after the abort starts a fresh flight
// instead of joining a poisoned one.
func (c *Cache) detach(s *shard, key Key, f *flight) {
	s.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	finished := f.finished
	if last && !finished && s.flights[key] == f {
		delete(s.flights, key)
	}
	s.mu.Unlock()
	if last {
		f.cancel()
		if finished && f.entry != nil {
			s.unpin(f.entry)
		}
	}
}
