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

// Source returns a stream.BlockSource that fetches whole blocks of the
// named file over the store's connection pool, one pooled client per
// server. Blocks whose server is down, whose content is corrupt, or that
// are simply missing come back nil, so a stream.Reader (or
// PrefetchReader) on top degrades per stripe through the Carousel
// parallel read instead of failing the stream. The source implements
// stream.BlockRecycler, so a PrefetchReader returns the fetched buffers
// to the pool as soon as each stripe is decoded.
func (s *Store) Source(ctx context.Context, name string) stream.BlockSource {
	return &storeSource{s: s, ctx: ctx, name: name}
}

type storeSource struct {
	s    *Store
	ctx  context.Context
	name string
}

func (src *storeSource) StripeBlocks(stripe int) ([][]byte, error) {
	n := src.s.code.N()
	blocks := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-block failures leave a nil entry; the decoder works
			// around up to n-k of them.
			_ = src.s.pool.WithClient(src.ctx, src.s.addrs[i], func(c *Client) error {
				data, err := c.Get(src.ctx, BlockName(src.name, stripe, i))
				if err == nil {
					blocks[i] = data
				}
				return err
			})
		}(i)
	}
	wg.Wait()
	if err := src.ctx.Err(); err != nil {
		recycleAll(blocks)
		return nil, classify(err)
	}
	return blocks, nil
}

// RecycleBlocks implements stream.BlockRecycler: fetched blocks go back to
// the buffer pool once the stripe they belong to is decoded.
func (src *storeSource) RecycleBlocks(blocks [][]byte) {
	recycleAll(blocks)
}

// ReadStripeInto implements stream.StripeSource when the store has a
// stripe cache, by the same route ReadFile takes per stripe: a hit copies
// the decoded stripe into dst with no network traffic, a miss runs the
// store's hedged fetch exactly once per in-flight stripe and populates the
// cache for the next reader, and hits and coalesced misses move the same
// store_* counters. With the cache disabled it reports (false, nil) and
// the PrefetchReader falls back to the per-block path unchanged.
func (src *storeSource) ReadStripeInto(stripe int, dst []byte) (bool, error) {
	if src.s.cache == nil {
		return false, nil
	}
	err := src.s.readStripeCached(src.ctx, src.name, stripe, dst, &ReadStats{mu: new(sync.Mutex)})
	return err == nil, err
}
