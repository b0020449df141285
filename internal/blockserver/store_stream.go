package blockserver

import (
	"context"
	"sync"

	"carousel/internal/stream"
)

// Sink returns a stream.BlockSink that uploads each encoded block of the
// named file to its home server through the store's connection pool, under
// the store's block-naming scheme. A stream.Writer stacked on it is the
// streaming counterpart of WriteFile: blocks ride the same pooled
// connections and land where ReadFile and Repair expect them.
func (s *Store) Sink(ctx context.Context, name string) stream.BlockSink {
	return &storeSink{s: s, ctx: ctx, name: name}
}

type storeSink struct {
	s    *Store
	ctx  context.Context
	name string
}

func (k *storeSink) PutBlock(stripe, block int, data []byte) error {
	err := k.s.put(k.ctx, k.s.addrs[block], BlockName(k.name, stripe, block), data)
	// A streaming write mutates blocks one at a time, so every upload bumps
	// the file's cache generation — readers overlapping the stream never
	// see a stale stripe, and the final bump retires anything cached
	// mid-stream.
	if err == nil && k.s.cache != nil {
		k.s.cache.Invalidate(k.name)
	}
	return err
}

// Source returns a stream.StripeSource over the named file: every stripe a
// stream.PrefetchReader asks for takes the route ReadFile takes per stripe
// — the stripe cache when one is configured (a hit costs no network
// traffic, concurrent misses coalesce), otherwise straight to the hedged,
// planned stripe read — and moves the same store_*
// counters. A dead server therefore degrades a stream exactly as it
// degrades a ReadFile.
func (s *Store) Source(ctx context.Context, name string) stream.StripeSource {
	return &storeSource{s: s, ctx: ctx, name: name}
}

type storeSource struct {
	s    *Store
	ctx  context.Context
	name string
}

func (src *storeSource) ReadStripeInto(stripe int, dst []byte) error {
	return src.s.readStripeCached(src.ctx, src.name, stripe, dst, &ReadStats{mu: new(sync.Mutex)})
}
