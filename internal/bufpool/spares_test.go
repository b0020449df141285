package bufpool

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSparesKeepExactSizesNewestFirst: Take hands out spares of exactly the
// asked size, newest first, then fresh buffers; Give forgets the oldest
// beyond the bound; Provision fills only up to it; Give to a nil list is
// a no-op.
func TestSparesKeepExactSizesNewestFirst(t *testing.T) {
	sp := NewSpares(3)
	a, b, c, d := make([]byte, 8), make([]byte, 16), make([]byte, 8), make([]byte, 8)
	sp.Give(a, b, c)
	sp.Give(d) // forgets a
	got, fresh := sp.Take(nil, 3, 8)
	if fresh != 1 || len(got) != 3 || &got[0][0] != &d[0] || &got[1][0] != &c[0] || len(got[2]) != 8 {
		t.Fatalf("Take(3, 8) = %d buffers, %d fresh; want d, c, then one fresh", len(got), fresh)
	}
	sp.Provision(5, 16) // b is still there: room for two
	if got, fresh = sp.Take(nil, 4, 16); fresh != 1 || &got[0][0] == &b[0] || &got[2][0] != &b[0] {
		t.Fatalf("Take(4, 16) after Provision: %d fresh; want two provisioned, then b, then one fresh", fresh)
	}
}

// TestLeaseChurn: a buffer leased through a Hold reaches a writer only once
// every reader has left it. Readers pin the current buffer, yield, copy it
// and check its fill. Each round, once readers have pinned the current
// buffer, the owner makes the next one current, retires the old one and at
// once takes a buffer from the spares for the round after, poisoned and
// then filled. A copy holding any byte but its fill was read from a buffer
// a writer had taken. The race detector cannot be relied on to see that,
// so the test checks the bytes, without -race too.
func TestLeaseChurn(t *testing.T) {
	const size, readers, rounds, poison = 64 << 10, 4, 1000, 0xFF
	type lease struct {
		buf  []byte
		fill byte
		hold Hold
	}
	sp := NewSpares(2)
	publish := func(round int) *lease {
		bufs, _ := sp.Take(nil, 1, size)
		l := &lease{buf: bufs[0], fill: byte(round % poison)}
		fill(l.buf, poison)
		fill(l.buf, l.fill)
		return l
	}
	var mu sync.RWMutex // the owner's: readers pin under it, the owner retires under it
	cur := publish(0)
	var done atomic.Bool
	var pins atomic.Int64 // paces the owner: a round waits for readers' pins
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, size)
			for !done.Load() {
				mu.RLock()
				l := cur
				l.hold.Pin()
				mu.RUnlock()
				pins.Add(1)
				runtime.Gosched() // pinned, so the owner retires and the writer takes meanwhile
				copy(dst, l.buf)
				if l.hold.Unpin() {
					sp.Give(l.buf)
				}
				if n := bytes.Count(dst, []byte{l.fill}); n != size {
					t.Errorf("a reader of fill %#x copied %d other bytes: a writer took its buffer while it was pinned", l.fill, size-n)
					return
				}
			}
		}()
	}
	next := publish(1)
	for r := 2; r <= rounds; r++ {
		for want := pins.Load() + readers; pins.Load() < want && !t.Failed(); {
			runtime.Gosched()
		}
		mu.Lock()
		old := cur
		cur = next
		if old.hold.Retire() {
			sp.Give(old.buf)
		}
		mu.Unlock()
		next = publish(r) // at once, while readers may still pin old
	}
	done.Store(true)
	wg.Wait()
	if cur.hold.Retire() {
		sp.Give(cur.buf)
	}
	if got, _ := sp.Take(nil, 1, size); &got[0][0] != &cur.buf[0] {
		t.Fatal("the last buffer, retired once every reader stopped, is not spare")
	}
}

// fill sets every byte of b to v, in copies the race detector checks as
// ranges rather than byte by byte.
func fill(b []byte, v byte) {
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
