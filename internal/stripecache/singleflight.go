package stripecache

import (
	"context"
	"sync"
	"time"
)

// Flight is one in-progress coalesced fetch+decode. A shard leases it from
// its free list for a miss and takes it back (releaseLocked) once the fetch
// has finished and its last waiter has detached. Its bookkeeping is guarded
// by the shard's mutex; err and tally are published with the token the
// finished fetch sends on done, under that mutex, and read-only afterwards.
//
// done is the flight's one signal for its life: a channel of one slot that
// a finished fetch puts a token in. A waiter that takes the token puts it
// back before it reads the result, so the next waiter wakes too, and the
// release drains it, so the next lease's waiters block until their own
// fetch finishes. A waiter that leaves on its context takes no token.
//
// A flight has no cancel context of its own. Its fetch runs under ctx, which
// carries the starter's values and never ends, and finds the flight there
// (FlightOf): the stripe it fetches, the tally it counts its work in, and
// the abort it arms with an Interrupter for each stretch of work it must be
// able to stop.
type Flight struct {
	done  chan struct{}
	err   error
	entry *entry // the stripe the fetch lands in, a spare or fresh one: pinned for the waiters once fetched, until the last detaches
	tally Tally

	// waiters counts callers currently blocked on done (the creator
	// included). When the last one detaches from a flight still running,
	// it aborts the fetch: a flight nobody is waiting for has no reason to
	// keep hammering the network.
	waiters  int
	finished bool

	// The abort, under its own lock: the fetch arms and disarms it from its
	// goroutine, and the last waiter fires it under the shard's lock.
	amu     sync.Mutex
	aborted bool
	armed   Interrupter

	// What the fetch runs with, set for each lease by GetOrFetch.
	c     *Cache
	s     *shard
	key   Key
	size  int
	fetch func(ctx context.Context, dst []byte) error
	ctx   flightCtx

	run func() // fly, bound once for the life of the flight
}

// Tally is a fetch's count of its own work, kept in its flight (Flight.Tally)
// and handed, once the flight has finished, to the caller that started it
// and received its result; a flight nobody waited out keeps it to itself.
// It counts the payload bytes that landed, the sources rejected as corrupt,
// and the stripes the fetch served from data prefixes alone or rebuilt.
type Tally struct {
	Bytes    int64
	Corrupt  int
	Parallel int
	Fallback int
}

// An Interrupter stops a stretch of a fetch's work, such as one round of
// exchanges, when the flight is aborted while it is armed.
type Interrupter interface{ Interrupt() }

// flightKey is the context key FlightOf looks a flight up by.
type flightKey struct{}

// flightCtx is a flight's context: the starter's values, and no deadline
// or Done — a flight ends by its abort, not by any caller's context.
type flightCtx struct {
	context.Context
	f *Flight
}

func (*flightCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*flightCtx) Done() <-chan struct{}       { return nil }
func (*flightCtx) Err() error                  { return nil }

func (c *flightCtx) Value(key any) any {
	if key == (flightKey{}) {
		return c.f
	}
	return c.Context.Value(key)
}

// FlightOf returns the flight whose fetch runs under ctx, or nil outside a
// fetch.
func FlightOf(ctx context.Context) *Flight {
	f, _ := ctx.Value(flightKey{}).(*Flight)
	return f
}

// Key is the stripe the flight fetches.
func (f *Flight) Key() Key { return f.key }

// Tally is the flight's own tally, which its fetch alone writes.
func (f *Flight) Tally() *Tally { return &f.tally }

// Arm makes in what an abort interrupts, until Disarm, and interrupts it at
// once if the flight has already been aborted.
func (f *Flight) Arm(in Interrupter) {
	f.amu.Lock()
	defer f.amu.Unlock()
	f.armed = in
	if f.aborted {
		in.Interrupt()
	}
}

// Disarm empties the abort's slot and reports whether the flight has been
// aborted, in which case what was armed may have been interrupted.
func (f *Flight) Disarm() (aborted bool) {
	f.amu.Lock()
	defer f.amu.Unlock()
	f.armed = nil
	return f.aborted
}

// Aborted reports whether the flight's last waiter has left it.
func (f *Flight) Aborted() bool {
	f.amu.Lock()
	defer f.amu.Unlock()
	return f.aborted
}

// abort aborts the flight, interrupting what is armed.
func (f *Flight) abort() {
	f.amu.Lock()
	defer f.amu.Unlock()
	f.aborted = true
	if f.armed != nil {
		f.armed.Interrupt()
	}
}

// maxIdleFlights bounds a shard's free list of flights: enough for as many
// misses as a shard usually has in flight at once.
const maxIdleFlights = 8

// leaseLocked takes a flight from the shard's free list, or makes one, for
// a miss on key by a caller that waits on it, and enters it in the shard's
// flight table: a fetch of size bytes under ctx's values, into a spare
// entry or a fresh one. The caller starts it (run).
func (s *shard) leaseLocked(ctx context.Context, c *Cache, key Key, size int,
	fetch func(ctx context.Context, dst []byte) error) *Flight {
	var f *Flight
	if n := len(s.idle); n > 0 {
		f = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		f = &Flight{done: make(chan struct{}, 1)}
		f.run = f.fly
	}
	f.waiters, f.entry = 1, s.takeSpareLocked(size)
	f.c, f.s, f.key, f.size, f.fetch, f.ctx = c, s, key, size, fetch, flightCtx{ctx, f}
	s.flights[key] = f
	return f
}

// releaseLocked clears every field of a finished flight whose last waiter
// has detached — its result, entry, tally, abort, fetch, key and context —
// drains its done token, and keeps it for the shard's next miss.
func (s *shard) releaseLocked(f *Flight) {
	<-f.done
	f.err, f.entry, f.tally = nil, nil, Tally{}
	f.finished, f.aborted, f.armed = false, false, nil // waiters is 0 already
	f.c, f.s, f.key, f.size, f.fetch, f.ctx = nil, nil, Key{}, 0, nil, flightCtx{}
	if len(s.idle) < maxIdleFlights {
		s.idle = append(s.idle, f)
	}
}

// GetOrFetch serves one stripe through the cache: a hit copies the cached
// bytes into dst; a miss joins (or starts) the singleflight for the
// stripe's current-version key, so N concurrent misses cost exactly one
// fetch+decode whose result — or error — fans out to every waiter.
//
// fetch runs in its own goroutine under a context that carries the first
// caller's values (such as trace IDs) but not its cancellation, so one
// waiter's cancellation never aborts the flight for the others. A waiter
// whose ctx expires detaches and returns ctx's error; only when the last
// waiter detaches is the fetch itself aborted (Flight.Arm). On success the
// stripe is inserted into the cache under the version the flight was keyed
// by, and every waiter's dst receives a copy. The caller that started the
// flight and received its result gets the fetch's tally in tally, when
// tally is not nil; no other caller's is written.
//
// The return reports whether the read was a direct cache hit and whether
// this caller coalesced onto a flight another caller started.
func (c *Cache) GetOrFetch(ctx context.Context, file string, stripe int, dst []byte, tally *Tally,
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
		f = s.leaseLocked(ctx, c, key, len(dst), fetch)
		s.mu.Unlock()
		c.misses.Add(1)
		go f.run()
	} else {
		f.waiters++
		coalescedWaiter = true
		s.mu.Unlock()
		c.misses.Add(1)
		c.coalesced.Add(1)
	}

	select {
	case <-f.done:
		f.done <- struct{}{} // for the next waiter
		err = f.err
		if err == nil {
			copy(dst, f.entry.data) // before detaching: the flight's pin covers it
		}
		if tally != nil && !coalescedWaiter {
			*tally = f.tally
		}
		c.detach(s, f)
		return false, coalescedWaiter, err
	case <-ctx.Done():
		c.detach(s, f)
		return false, coalescedWaiter, ctx.Err()
	}
}

// fly executes the coalesced fetch+decode, publishes the result, and
// retires the flight so later misses start fresh; a flight every waiter
// has left is released here. The fetch lands in the flight's entry, which
// on success the cache admits, pinned for the waiters' copies; an entry
// not admitted is retired at once, so it is spare once its waiters have
// copied out of it, and a failed fetch's, which no waiter reads, at once.
func (f *Flight) fly() {
	c, s, key, e := f.c, f.s, f.key, f.entry
	err := f.fetch(&f.ctx, e.data) // it must write all of it: a spare holds an evicted stripe
	if err == nil {
		e.hold.Pin()
	}
	s.mu.Lock()
	switch {
	case err != nil:
		f.entry = nil // no waiter reads it
		s.retireLocked(e)
	case !c.admits(len(e.data)) || !c.putLocked(s, key, e):
		s.retireLocked(e) // spare once its waiters have copied out of it
	}
	f.err, f.finished = err, true
	f.done <- struct{}{} // under the lock: a waiter that detaches after it cannot release the flight before
	if s.flights[key] == f {
		delete(s.flights, key)
	}
	abandoned := f.waiters == 0
	if abandoned {
		s.releaseLocked(f)
	}
	s.mu.Unlock()
	if abandoned && err == nil {
		s.unpin(e)
	}
}

// detach removes one waiter from a flight. The last waiter out of a
// finished flight releases it and its pin; the last one out of a running
// flight aborts the fetch, a fetch nobody wants, and the flight releases
// itself once the fetch returns. A dying flight is removed from the shard's
// flight table under the same lock, so a caller arriving after the abort
// starts a fresh flight instead of joining a poisoned one.
func (c *Cache) detach(s *shard, f *Flight) {
	var pinned *entry
	s.mu.Lock()
	f.waiters--
	switch {
	case f.waiters > 0:
	case f.finished:
		pinned = f.entry
		s.releaseLocked(f)
	default:
		if s.flights[f.key] == f {
			delete(s.flights, f.key)
		}
		f.abort() // under the lock, which the flight takes to finish and be released
	}
	s.mu.Unlock()
	if pinned != nil {
		s.unpin(pinned)
	}
}
