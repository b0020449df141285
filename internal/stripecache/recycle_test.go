package stripecache

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"
)

// The tests below pin buffer reuse: a flight fetches into the buffer of an
// entry its shard retired, never while a reader still copies out of that
// entry, and never into a buffer a caller handed to Put.

const recycleSize = 1024

// shardStripes returns n stripes of file f that hash to one shard, with
// that shard.
func shardStripes(c *Cache, f string, n int) ([]int, *shard) {
	s := c.shardFor(Key{File: f})
	var out []int
	for st := 0; len(out) < n; st++ {
		if c.shardFor(Key{File: f, Stripe: st}) == s {
			out = append(out, st)
		}
	}
	return out, s
}

// fetchInto reads stripe st through GetOrFetch and returns the buffer a
// miss's fetch was handed (the entry's data, if admitted), nil on a hit.
// The fetch writes every byte.
func fetchInto(t *testing.T, c *Cache, st int) []byte {
	t.Helper()
	var got []byte
	dst := make([]byte, recycleSize)
	_, _, err := c.GetOrFetch(context.Background(), "f", st, dst, nil,
		func(_ context.Context, out []byte) error {
			got = out
			copy(out, fill(recycleSize, byte(st)))
			return nil
		})
	if err != nil || !bytes.Equal(dst, fill(recycleSize, byte(st))) {
		t.Fatalf("stripe %d: err %v, or bytes other than the fetch wrote", st, err)
	}
	return got
}

// same reports whether a and b share their first byte: one buffer.
func same(a, b []byte) bool { return a != nil && b != nil && &a[0] == &b[0] }

// spared reports whether b is the buffer of an entry on the shard's spare
// list.
func spared(s *shard, b []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.ContainsFunc(s.spares, func(e *entry) bool { return same(e.data, b) })
}

// TestHeldEntryStaysOffSpares: an entry a reader has pinned, evicted by
// later misses, keeps its buffer off the spare list — no flight fetches
// into it — until the reader unpins, and then it is spare. The reader's
// copy, taken after the eviction, holds the stripe intact, and the next
// miss of the shard fetches into that same entry, buffer and all.
func TestHeldEntryStaysOffSpares(t *testing.T) {
	c := New(numShards * 2 * recycleSize) // two stripes a shard
	sts, s := shardStripes(c, "f", 9)
	held := fetchInto(t, c, sts[0])
	key := Key{File: "f", Stripe: sts[0]}
	s.mu.Lock()
	e := s.pinLocked(key, recycleSize) // a hit mid-copy
	s.mu.Unlock()
	if e == nil {
		t.Fatal("the fetched stripe is not resident")
	}
	// The fetch and the hit count two lookups of the entry in the sketch,
	// so it takes a key looked up three times, in the third pass, to evict
	// it: the misses of the first two passes are refused admission, but
	// for the first, which takes the shard's free room.
	evicted := false
	for pass := 0; pass < 4 && !evicted; pass++ {
		for _, st := range sts[1:8] {
			if same(fetchInto(t, c, st), held) {
				t.Fatalf("stripe %d's flight fetched into the buffer of a pinned entry", st)
			}
			s.mu.Lock()
			evicted = s.items[key] == nil
			s.mu.Unlock()
			if evicted {
				break
			}
		}
	}
	if !evicted {
		t.Fatal("the pinned entry was never evicted")
	}
	if spared(s, held) {
		t.Fatal("an evicted entry's buffer is spare while a reader still pins it")
	}
	dst := make([]byte, recycleSize)
	if copy(dst, e.data); !bytes.Equal(dst, fill(recycleSize, byte(sts[0]))) {
		t.Fatal("a hit pinned across an eviction copied other bytes than its stripe's")
	}
	s.unpin(e)
	if !spared(s, held) {
		t.Fatal("the last unpin of an evicted entry did not spare its buffer")
	}
	if !same(fetchInto(t, c, sts[8]), held) {
		t.Fatal("the next miss did not fetch into the spared buffer")
	}
	s.mu.Lock() // the stripe may have been evicted at once, and its entry spared again
	reused := s.items[Key{File: "f", Stripe: sts[8]}] == e || slices.Contains(s.spares, e)
	s.mu.Unlock()
	if !reused {
		t.Fatal("the next miss's stripe was admitted in another entry than the spared one")
	}
	if !bytes.Equal(dst, fill(recycleSize, byte(sts[0]))) {
		t.Fatal("the pinned hit's copy changed once its entry was reused")
	}
}

// TestPutBufferNeverReachesAFlight: a buffer the caller handed to Put is
// evicted and purged like any entry, but no flight ever fetches into it.
func TestPutBufferNeverReachesAFlight(t *testing.T) {
	c := New(numShards * 2 * recycleSize)
	sts, s := shardStripes(c, "f", 32)
	owned := fill(recycleSize, 9)
	c.Put("f", sts[0], owned)
	for _, st := range sts[1:] {
		if same(fetchInto(t, c, st), owned) {
			t.Fatalf("stripe %d's flight fetched into a Put buffer", st)
		}
	}
	s.mu.Lock()
	resident := s.items[Key{File: "f", Stripe: sts[0]}] != nil
	s.mu.Unlock()
	if resident || spared(s, owned) {
		t.Fatalf("Put entry resident %v, spare %v; want evicted and not spare", resident, spared(s, owned))
	}
	c.Put("f", sts[0], owned)
	c.Invalidate("f")
	if spared(s, owned) {
		t.Fatal("a purged Put buffer is spare")
	}
}

// TestFinishedFlightPinsForItsWaiters: a flight's stripe, purged before a
// waiter has copied it out, stays off the spare list until the last
// waiter detaches.
func TestFinishedFlightPinsForItsWaiters(t *testing.T) {
	c := New(1 << 20)
	key := Key{File: "f"}
	s := c.shardFor(key)
	s.mu.Lock()
	f := s.leaseLocked(context.Background(), c, key, recycleSize, func(_ context.Context, out []byte) error {
		copy(out, fill(recycleSize, 2))
		return nil
	})
	s.mu.Unlock()
	f.fly()
	if f.entry == nil {
		t.Fatal("the flight's stripe was not admitted")
	}
	data := f.entry.data // the last detach releases the flight, clearing it
	c.Invalidate("f")    // the waiter has not copied the stripe yet
	if spared(s, data) {
		t.Fatal("a purged flight buffer is spare while a waiter has yet to copy it")
	}
	c.detach(s, f)
	if !spared(s, data) {
		t.Fatal("the last waiter's detach did not spare the purged flight buffer")
	}
}

// TestAbandonedFlightReleasesPin: a flight whose every waiter left before
// the fetch finished still inserts its stripe, and releases the pin it
// holds for its waiters itself, so the entry's buffer is spare once the
// entry is purged.
func TestAbandonedFlightReleasesPin(t *testing.T) {
	c := New(1 << 20)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	release := make(chan struct{})
	var buf []byte
	_, _, err := c.GetOrFetch(ctx, "f", 0, make([]byte, recycleSize), nil,
		func(_ context.Context, out []byte) error {
			<-release // a fetch that ignores its cancellation and succeeds
			buf = out
			copy(out, fill(recycleSize, 1))
			return nil
		})
	if err == nil {
		t.Fatal("the abandoning waiter got no error")
	}
	close(release)
	key := Key{File: "f", Stripe: 0}
	s := c.shardFor(key)
	deadline := time.Now().Add(2 * time.Second)
	for resident := false; !resident; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight: its entry never became resident")
		}
		s.mu.Lock()
		resident = s.items[key] != nil
		s.mu.Unlock()
	}
	// The flight may still pin the entry: its buffer is spare once it unpins.
	c.Invalidate("f")
	for !spared(s, buf) {
		if time.Now().After(deadline) {
			t.Fatal("the purged entry of an abandoned flight is not spare")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpareIsOverwritten: a spare poisoned with 0xFF is the buffer the
// next flight of its shard is handed, and its waiters and later hits see
// only what the fetch wrote — the fetch overwrites every byte.
func TestSpareIsOverwritten(t *testing.T) {
	c := New(1 << 20)
	sts, s := shardStripes(c, "f", 2)
	first := fetchInto(t, c, sts[0])
	c.Invalidate("f")
	if !spared(s, first) {
		t.Fatal("a purged, unpinned flight buffer is not spare")
	}
	for i := range first {
		first[i] = 0xFF
	}
	want := fill(recycleSize, 3)
	dst := make([]byte, recycleSize)
	_, _, err := c.GetOrFetch(context.Background(), "f", sts[1], dst, nil,
		func(_ context.Context, out []byte) error {
			if !same(out, first) || !bytes.Equal(out, bytes.Repeat([]byte{0xFF}, recycleSize)) {
				t.Error("the flight was not handed the poisoned spare")
			}
			copy(out, want)
			return nil
		})
	if err != nil || !bytes.Equal(dst, want) {
		t.Fatalf("waiter: err %v, bytes match %v", err, bytes.Equal(dst, want))
	}
	if !c.Get("f", sts[1], dst) || !bytes.Equal(dst, want) {
		t.Fatal("a hit on the recycled entry returned other bytes than the fetch wrote")
	}
	c.Invalidate("f")
	if !spared(s, first) {
		t.Fatal("the recycled entry is still pinned after every reader left")
	}
}
