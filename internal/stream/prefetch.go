package stream

import (
	"errors"
	"fmt"
	"io"

	"carousel/internal/bufpool"
	"carousel/internal/carousel"
)

// DefaultPrefetchDepth is how many stripes a PrefetchReader keeps in
// flight when NewPrefetchReader is given a non-positive depth. It is 4, the
// block store's stripesInFlight, so a stream stacked on a Store keeps the
// same number of stripes moving.
const DefaultPrefetchDepth = 4

// StripeSource serves whole decoded stripes: ReadStripeInto fills dst
// (k·blockSize bytes, padding included, possibly dirty) with the stripe's
// original data, or returns the error that sinks the stripe. A block store
// implements it directly — out of its stripe cache, or by its own hedged
// fetch and decode — and Decoded adapts any BlockSource.
type StripeSource interface {
	ReadStripeInto(stripe int, dst []byte) error
}

// Decoded adapts a BlockSource into a StripeSource: a stripe is read by
// fetching its blocks and running the Carousel parallel read over them, so
// missing blocks degrade per stripe instead of failing the stream.
func Decoded(code *carousel.Code, src BlockSource) StripeSource {
	return decoded{code, src}
}

type decoded struct {
	code *carousel.Code
	src  BlockSource
}

func (d decoded) ReadStripeInto(stripe int, dst []byte) error {
	blocks, err := d.src.StripeBlocks(stripe)
	if err != nil {
		return err
	}
	return d.code.ParallelReadInto(blocks, dst)
}

// stripeResult is one decoded stripe (or the error that sank it).
type stripeResult struct {
	data []byte // pooled; ownership moves to the receiver
	err  error
}

// PrefetchReader is a pipelined Reader: while the caller consumes stripe
// st, up to depth later stripes are being read from the source
// concurrently, so the source's latency hides behind the
// consumer's pace instead of serializing with it. Decoded stripes come out
// of the shared buffer pool and go back as they are consumed, so a
// steady-state stream allocates almost nothing.
//
// The reader is for a single consumer goroutine. Close releases every
// in-flight stripe; it must be called when the caller stops early, and is
// idempotent.
type PrefetchReader struct {
	size   int64
	off    int64
	cur    []byte // pooled; current decoded stripe
	curOff int
	queue  chan chan stripeResult // stripe results in order, depth-bounded
	quit   chan struct{}
	closed bool
}

// NewPrefetchReader returns a pipelined streaming decoder for a stream of
// the given original size. depth bounds how many stripes are fetched and
// decoded ahead of the consumer; non-positive means DefaultPrefetchDepth.
func NewPrefetchReader(code *carousel.Code, blockSize int, size int64, src StripeSource, depth int) (*PrefetchReader, error) {
	if blockSize <= 0 || blockSize%code.BlockAlign() != 0 {
		return nil, fmt.Errorf("stream: block size %d must be a positive multiple of %d", blockSize, code.BlockAlign())
	}
	if size < 0 {
		return nil, fmt.Errorf("stream: negative size %d", size)
	}
	if src == nil {
		return nil, errors.New("stream: nil source")
	}
	if depth <= 0 {
		depth = DefaultPrefetchDepth
	}
	r := &PrefetchReader{
		size:  size,
		queue: make(chan chan stripeResult, depth),
		quit:  make(chan struct{}),
	}
	go dispatch(int64(code.K())*int64(blockSize), size, src, r.queue, r.quit)
	return r, nil
}

// dispatch launches one read goroutine per stripe of per bytes, in order. The
// queue's capacity is the pipeline depth: enqueueing the stripe's result
// slot blocks once depth stripes are outstanding, which is what throttles
// the prefetch to the consumer's pace. Each worker delivers into its own
// buffered slot, so workers never block and never leak, even when the
// reader is closed mid-stream.
func dispatch(per, size int64, src StripeSource, queue chan chan stripeResult, quit chan struct{}) {
	defer close(queue)
	stripes := int((size + per - 1) / per)
	for st := 0; st < stripes; st++ {
		slot := make(chan stripeResult, 1)
		select {
		case queue <- slot:
		case <-quit:
			return
		}
		go func(st int, slot chan<- stripeResult) {
			// The source fills a pooled buffer it does not keep (a cache
			// copies into it), so recycling the buffer downstream never
			// races the source's own memory.
			out := bufpool.Get(int(per))
			if err := src.ReadStripeInto(st, out); err != nil {
				bufpool.Put(out)
				slot <- stripeResult{err: fmt.Errorf("stream: reading stripe %d: %w", st, err)}
				return
			}
			slot <- stripeResult{data: out}
		}(st, slot)
	}
}

// Read implements io.Reader. Stripes arrive in order regardless of which
// finished decoding first.
func (r *PrefetchReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, errors.New("stream: read after Close")
	}
	if r.off >= r.size {
		return 0, io.EOF
	}
	if r.curOff >= len(r.cur) {
		if r.cur != nil {
			bufpool.Put(r.cur)
			r.cur = nil
		}
		slot, ok := <-r.queue
		if !ok {
			return 0, io.ErrUnexpectedEOF
		}
		res := <-slot
		if res.err != nil {
			return 0, res.err
		}
		r.cur = res.data
		r.curOff = 0
	}
	n := copy(p, r.cur[r.curOff:])
	if rem := r.size - r.off; int64(n) > rem {
		n = int(rem)
	}
	r.curOff += n
	r.off += int64(n)
	if n == 0 && r.off < r.size {
		return 0, io.ErrUnexpectedEOF
	}
	return n, nil
}

// Close stops the prefetcher and returns every in-flight stripe buffer to
// the pool. It is idempotent and must be called when the consumer stops
// before EOF; reading after Close fails.
func (r *PrefetchReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	close(r.quit)
	// Drain stripes already dispatched: each has a worker that will deliver
	// into its buffered slot, so receiving here cannot hang and returns
	// their pooled buffers.
	for slot := range r.queue {
		if res := <-slot; res.data != nil {
			bufpool.Put(res.data)
		}
	}
	if r.cur != nil {
		bufpool.Put(r.cur)
		r.cur = nil
	}
	return nil
}

var _ io.ReadCloser = (*PrefetchReader)(nil)
