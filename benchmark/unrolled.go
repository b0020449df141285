package main

import (
	"context"
	"fmt"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/bufpool"
	"carousel/internal/stripecache"
)

// Layers a span can belong to. The root of an unrolled operation is in
// layerOther: its self time is what the harness spends between the calls.
const (
	layerStore = "store" // a real Store call, timed whole
	layerRPC   = "rpc"   // blockserver Pool and Client
	layerCodec = "codec" // carousel.Code and what it runs on
	layerCache = "cache" // stripecache
	layerOther = "other"
)

// unroller replays a workload's operation from the public calls of the
// layers under Store, one call after another, with a span around each.
// Its outputs are checked like the Store's, so the two do the same work.
type unroller struct {
	f     *fixture
	rec   *recorder
	cache *stripecache.Cache // its own, sized like the Store's
	out   []byte             // one object's bytes
}

func newUnroller(f *fixture, rec *recorder) *unroller {
	u := &unroller{f: f, rec: rec, out: make([]byte, f.objects[0].size)}
	if f.spec.cacheBytes > 0 {
		u.cache = stripecache.New(f.spec.cacheBytes)
	}
	return u
}

// step runs fn as a child span of parent.
func (u *unroller) step(trace, parent uint64, layer, name string, bytes int, fn func(id uint64) error) error {
	id := u.rec.id()
	t0 := time.Now()
	err := fn(id)
	u.rec.add(trace, id, parent, layer, name, t0, time.Now(), int64(bytes))
	return err
}

// withClient is Pool.WithClient as a span, with the client call fn makes
// as its child: the parent's self time is the checkout and return.
func (u *unroller) withClient(ctx context.Context, trace, parent uint64, server int, name string, bytes int, fn func(cl *blockserver.Client) error) error {
	f := u.f
	return u.step(trace, parent, layerRPC, "Pool.WithClient", 0, func(id uint64) error {
		return f.store.Pool().WithClient(ctx, f.addrs[server], func(cl *blockserver.Client) error {
			return u.step(trace, id, layerRPC, name, bytes, func(uint64) error { return fn(cl) })
		})
	})
}

// readStripe is the healthy read of one stripe: the data range of each of
// the p data-bearing blocks fetched into a block buffer, then the codec's
// reassembly into dst.
func (u *unroller) readStripe(ctx context.Context, trace, root uint64, name string, st int, dst []byte) error {
	f := u.f
	blocks := make([][]byte, codeN)
	defer func() {
		for _, b := range blocks {
			bufpool.Put(b)
		}
	}()
	for i := 0; i < codeP; i++ {
		blocks[i] = bufpool.Get(f.block)
		lo, hi := f.code.DataRange(i, f.block)
		err := u.withClient(ctx, trace, root, i, "Client.GetRangeInto", hi-lo, func(cl *blockserver.Client) error {
			return cl.GetRangeInto(ctx, blockserver.BlockName(name, st, i), 0, blocks[i][:hi-lo])
		})
		if err != nil {
			return err
		}
	}
	return u.step(trace, root, layerCodec, "Code.ParallelReadInto", len(dst), func(uint64) error {
		return f.code.ParallelReadInto(blocks, dst)
	})
}

// verified is what an unrolled operation returns: the user bytes it moved
// and a check of them against the CRC taken at seeding, which the caller
// runs once the operation's span has ended.
type verified struct {
	bytes int64
	check func() error
}

func (u *unroller) checkOut(o *object, version int) func() error {
	return func() error {
		if blockserver.Checksum(u.out) != o.crc[version] {
			return fmt.Errorf("unrolled %s: bytes of %s differ from those seeded", u.f.spec.name, o.name)
		}
		return nil
	}
}

func unrolledRead(ctx context.Context, u *unroller, trace, root uint64) (verified, error) {
	f := u.f
	_, i := f.seq.pick()
	o := &f.objects[i]
	for st := 0; st < f.stripes(o); st++ {
		if err := u.readStripe(ctx, trace, root, o.name, st, u.out[st*f.stripe:(st+1)*f.stripe]); err != nil {
			return verified{}, err
		}
	}
	return verified{int64(o.size), u.checkOut(o, 0)}, nil
}

func unrolledWrite(ctx context.Context, u *unroller, trace, root uint64) (verified, error) {
	f := u.f
	n, i := f.seq.pick()
	o := &f.objects[i]
	v := (n/len(f.objects) + 1) % 2
	shards := make([][]byte, codeK)
	for st := 0; st < f.stripes(o); st++ {
		for j := range shards {
			lo := st*f.stripe + j*f.block
			shards[j] = o.data[v][lo : lo+f.block]
		}
		var blocks [][]byte
		err := u.step(trace, root, layerCodec, "Code.Encode", f.stripe, func(uint64) (err error) {
			blocks, err = f.code.Encode(shards)
			return err
		})
		if err != nil {
			return verified{}, err
		}
		for j, b := range blocks {
			err := u.withClient(ctx, trace, root, j, "Client.Put", len(b), func(cl *blockserver.Client) error {
				return cl.Put(ctx, blockserver.BlockName(o.name, st, j), b)
			})
			if err != nil {
				return verified{}, err
			}
		}
	}
	return verified{int64(o.size), func() error {
		if err := f.rangeRead(ctx, o, u.out); err != nil {
			return err
		}
		return u.checkOut(o, v)()
	}}, nil
}

// unrolledDegradedRead knows which server is gone and never calls it:
// whole blocks from the first k survivors, then the any-k decode. What the
// Store spends beyond this is the cost of finding the failure each stripe.
func unrolledDegradedRead(ctx context.Context, u *unroller, trace, root uint64) (verified, error) {
	f := u.f
	_, i := f.seq.pick()
	o := &f.objects[i]
	for st := 0; st < f.stripes(o); st++ {
		blocks := make([][]byte, codeN)
		for j, got := 0, 0; got < codeK; j++ {
			if j == deadServer {
				continue
			}
			got++
			err := u.withClient(ctx, trace, root, j, "Client.Get", f.block, func(cl *blockserver.Client) (err error) {
				blocks[j], err = cl.Get(ctx, blockserver.BlockName(o.name, st, j))
				return err
			})
			if err != nil {
				return verified{}, err
			}
		}
		var shards [][]byte
		err := u.step(trace, root, layerCodec, "Code.Decode", f.stripe, func(uint64) (err error) {
			shards, err = f.code.Decode(blocks)
			return err
		})
		for _, b := range blocks {
			blockserver.Recycle(b)
		}
		if err != nil {
			return verified{}, err
		}
		for j, s := range shards {
			copy(u.out[st*f.stripe+j*f.block:], s)
		}
	}
	return verified{int64(o.size), u.checkOut(o, 0)}, nil
}

// unrolledRecover rebuilds every block of the failed server in turn: d
// helper chunks (the Store's stripe-rotated choice), RepairBlock, Put.
func unrolledRecover(ctx context.Context, u *unroller, trace, root uint64) (verified, error) {
	f := u.f
	f.seq.pick()
	if err := f.emptyFailedServer(ctx); err != nil {
		return verified{}, err
	}
	var rebuilt int64
	for i := range f.objects {
		o := &f.objects[i]
		for st := 0; st < f.stripes(o); st++ {
			helpers := make([]int, 0, codeD)
			for j := 0; j < codeD; j++ {
				h := (st + j) % (codeN - 1) // position on the ring of survivors
				if h >= failedServer {
					h++
				}
				helpers = append(helpers, h)
			}
			chunks := make([][]byte, codeD)
			for j, h := range helpers {
				err := u.withClient(ctx, trace, root, h, "Client.Chunk", f.code.HelperChunkSize(f.block), func(cl *blockserver.Client) (err error) {
					chunks[j], err = cl.Chunk(ctx, blockserver.BlockName(o.name, st, h), h, failedServer)
					return err
				})
				if err != nil {
					return verified{}, err
				}
			}
			var block []byte
			err := u.step(trace, root, layerCodec, "Code.RepairBlock", f.block, func(uint64) (err error) {
				block, err = f.code.RepairBlock(failedServer, helpers, chunks)
				return err
			})
			for _, c := range chunks {
				blockserver.Recycle(c)
			}
			if err != nil {
				return verified{}, err
			}
			if blockserver.Checksum(block) != f.blockCRC[i][st] {
				return verified{}, fmt.Errorf("unrolled recover: block %d of %s differs from the one first encoded", st, o.name)
			}
			err = u.withClient(ctx, trace, root, failedServer, "Client.Put", len(block), func(cl *blockserver.Client) error {
				return cl.Put(ctx, blockserver.BlockName(o.name, st, failedServer), block)
			})
			if err != nil {
				return verified{}, err
			}
			rebuilt += int64(len(block))
		}
	}
	return verified{rebuilt, func() error { return nil }}, nil
}

// unrolledCachedRead is the small-object read: the cache first, and on a
// miss the healthy read path and an insert.
func unrolledCachedRead(ctx context.Context, u *unroller, trace, root uint64) (verified, error) {
	f := u.f
	_, i := f.seq.pick()
	o := &f.objects[i]
	hit := false
	_ = u.step(trace, root, layerCache, "Cache.Get", 0, func(uint64) error {
		hit = u.cache.Get(o.name, 0, u.out)
		return nil
	})
	if !hit {
		if err := u.readStripe(ctx, trace, root, o.name, 0, u.out); err != nil {
			return verified{}, err
		}
		// The cache takes ownership of what it is given, so it gets a copy.
		entry := append([]byte(nil), u.out...)
		_ = u.step(trace, root, layerCache, "Cache.Put", len(entry), func(uint64) error {
			u.cache.Put(o.name, 0, entry)
			return nil
		})
	}
	return verified{int64(o.size), u.checkOut(o, 0)}, nil
}
