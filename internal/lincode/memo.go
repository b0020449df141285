package lincode

import "sync"

// Memo maps a key — a short byte string, such as a list of block indices
// packed one per byte — to a value that is expensive to build and
// immutable once built: a survivor set's inverse, a compiled plan, a read
// plan with its degraded-read solver. Each key is built
// once: goroutines that miss on the same key together wait for the first
// one's build instead of each inverting and compiling the same system. A
// build that fails is not kept, so the next Get tries again.
//
// The map is unbounded by design. Its keys are index lists of a fixed code,
// so it can hold at most the C(n, k) survivor sets (times the targets asked
// of each); for the store's (12, 6, 10, 10) code that is 924 decode plans of
// about 11 KB. A Carousel code's read plans are keyed by an availability
// bitmap and a block size: at most the 2,510 availabilities of k or more of
// those 12 blocks for each block size planned, and a store plans one. A
// live cluster only ever sees the handful of failure patterns it actually
// suffers. Eviction would cost more than it could save.
//
// The zero Memo is ready for use; it must not be copied after first use.
type Memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Get returns the value for key, calling build to make it if no earlier
// Get has. key is only read during the call and may be reused afterwards.
func (m *Memo[V]) Get(key []byte, build func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.m[string(key)]
	if !ok {
		if m.m == nil {
			m.m = make(map[string]*memoEntry[V])
		}
		e = new(memoEntry[V])
		m.m[string(key)] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		if e.val, e.err = build(); e.err != nil {
			// Concurrent waiters on e share this error; dropping the entry
			// makes later callers start a fresh build.
			m.mu.Lock()
			delete(m.m, string(key))
			m.mu.Unlock()
		}
	})
	return e.val, e.err
}
