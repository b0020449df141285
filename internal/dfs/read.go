package dfs

import (
	"context"
	"errors"
	"fmt"

	"carousel/internal/bufpool"
	"carousel/internal/cluster"
	"carousel/internal/frame"
	"carousel/internal/obs"
)

// ReadMode selects how a client retrieves a file.
type ReadMode int

const (
	// ReadParallel streams from all relevant datanodes concurrently (the
	// paper's custom download program for coded files, and HDFS
	// replication read with one stream per block).
	ReadParallel ReadMode = iota
	// ReadSequential fetches block after block, like `hadoop fs -get`.
	ReadSequential
)

// ReadResult reports a completed file retrieval.
type ReadResult struct {
	// Data is the reassembled original file content.
	Data []byte
	// Parallelism is the number of concurrent source streams used for one
	// stripe.
	Parallelism int
	// BytesFetched counts bytes moved from datanodes to the client.
	BytesFetched int64
	// DecodeBytes counts output bytes that required GF(2^8) computation at
	// the client (0 when all data was read verbatim).
	DecodeBytes int64
}

// Read retrieves the file to the client node, charging simulated transfer
// and decode time. It must be called from within a simulation process.
func (fs *FS) Read(p *cluster.Proc, client *cluster.Node, name string, mode ReadMode) (*ReadResult, error) {
	// The simulation API carries no context, so every Read roots its own
	// trace; stage spans below decompose it the same way the blockserver
	// store does: locate → verify → fetch/decode.
	ctx, sp := obs.StartSpan(context.Background(), "dfs.read")
	sp.SetAttr("file", name).SetAttr("mode", int(mode))
	defer sp.End()

	_, lsp := obs.StartSpan(ctx, "locate")
	f, err := fs.File(name)
	lsp.End()
	if err != nil {
		return nil, err
	}
	sp.SetAttr("scheme", f.scheme.Name())
	// Datanodes verify each block against its ingest checksum before
	// serving it: corruption is quarantined here, so the read below sees
	// the block as unavailable and decodes around it instead of returning
	// bad data.
	_, vsp := obs.StartSpan(ctx, "verify")
	quarantined := fs.quarantineCorrupt(f)
	vsp.SetAttr("quarantined", quarantined)
	vsp.End()
	res := &ReadResult{Data: make([]byte, f.size)}
	switch s := f.scheme.(type) {
	case Replication:
		err = fs.readReplicated(ctx, p, client, f, mode, res)
	case Carousel:
		err = fs.readCarousel(ctx, p, client, f, s, res)
	default:
		err = fmt.Errorf("dfs: unknown scheme %T", f.scheme)
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
		if quarantined > 0 && errors.Is(err, ErrUnavailable) {
			err = fmt.Errorf("%w (%d corrupt block(s) quarantined): %w", ErrCorrupt, quarantined, err)
		}
		return nil, err
	}
	fs.stats.BytesRead += res.BytesFetched
	return res, nil
}

// readReplicated streams each block from one replica, sequentially or in
// parallel.
func (fs *FS) readReplicated(ctx context.Context, p *cluster.Proc, client *cluster.Node, f *File, mode ReadMode, res *ReadResult) error {
	_, fsp := obs.StartSpan(ctx, "fetch")
	defer func() { fsp.SetAttr("bytes", res.BytesFetched).End() }()
	type job struct {
		src    *cluster.Node
		off    int
		length int
		data   []byte
	}
	jobs := make([]job, 0, len(f.stripes))
	for i, st := range f.stripes {
		b := st.blocks[0]
		if len(b.locations) == 0 {
			return fmt.Errorf("%w: %s stripe %d has no replicas", ErrUnavailable, f.name, i)
		}
		off := i * f.blockSize
		length := f.blockSize
		if off+length > f.size {
			length = f.size - off
		}
		// Spread load across replicas round-robin.
		src := fs.node(b.locations[i%len(b.locations)])
		jobs = append(jobs, job{src: src, off: off, length: length, data: b.content})
	}
	if mode == ReadSequential {
		res.Parallelism = 1
		for _, j := range jobs {
			cluster.ReadRemote(p, j.src, client, float64(f.blockSize))
			copy(res.Data[j.off:j.off+j.length], j.data)
			res.BytesFetched += int64(f.blockSize)
		}
		return nil
	}
	res.Parallelism = len(jobs)
	sim := fs.cluster.Sim()
	wg := sim.NewWaitGroup()
	for _, j := range jobs {
		wg.Add(1)
		j := j
		sim.Go("read-"+f.name, func(sp *cluster.Proc) {
			defer wg.Done()
			cluster.ReadRemote(sp, j.src, client, float64(f.blockSize))
			copy(res.Data[j.off:j.off+j.length], j.data)
		})
		res.BytesFetched += int64(f.blockSize)
	}
	wg.Wait(p)
	return nil
}

// readCarousel retrieves a Carousel-coded file with the Section VII
// parallel read: original data from up to p sources, replacement blocks for
// missing ones, parity units where no spare is left. At p = k that is the
// systematic read of the k data blocks, a lost one replaced by a parity
// block.
func (fs *FS) readCarousel(ctx context.Context, p *cluster.Proc, client *cluster.Node, f *File, s Carousel, res *ReadResult) error {
	_, fsp := obs.StartSpan(ctx, "fetch")
	defer fsp.End()
	code := s.Code
	sim := fs.cluster.Sim()
	wg := sim.NewWaitGroup()
	var decodeWork int64
	// Per-stripe scratch is hoisted out of the loop: the availability
	// vector and block table are reused across stripes, and the decode
	// output for short tail stripes comes from the shared buffer pool.
	avail := make([]bool, code.N())
	blocks := make([][]byte, code.N())
	stripeBytes := code.K() * f.blockSize
	scratch := bufpool.Get(stripeBytes)
	defer bufpool.Put(scratch)
	for si, st := range f.stripes {
		for i := range avail {
			avail[i] = false
			blocks[i] = nil
		}
		for i := range st.blocks {
			avail[i] = st.available(i)
		}
		plan, err := code.PlanRead(avail, f.blockSize)
		if err != nil {
			return fmt.Errorf("%w: %s stripe %d: %v", ErrUnavailable, f.name, si, err)
		}
		if plan.Parallelism() > res.Parallelism {
			res.Parallelism = plan.Parallelism()
		}
		// Launch one stream per source in the plan.
		stream := func(blockIdx, bytes int) {
			wg.Add(1)
			src := fs.node(st.blocks[blockIdx].locations[0])
			sim.Go("read-carousel", func(sp *cluster.Proc) {
				defer wg.Done()
				cluster.ReadRemote(sp, src, client, float64(bytes))
			})
			res.BytesFetched += int64(bytes)
		}
		for _, idx := range plan.Direct {
			stream(idx, plan.BytesPerSource)
		}
		for _, repl := range plan.Replacements {
			stream(repl, plan.BytesPerSource)
		}
		for b, bytes := range plan.Patch {
			stream(b, bytes)
		}
		missingData := code.P() - len(plan.Direct)
		decodeWork += int64(missingData) * int64(code.DataBytesPerBlock(0, f.blockSize))
		// Reassemble with the real decoder on the in-memory blocks. Full
		// stripes decode directly into their slot of the output buffer;
		// only a short tail stripe goes through the pooled scratch.
		for i := range st.blocks {
			if avail[i] {
				blocks[i] = st.blocks[i].content
			}
		}
		lo := si * f.dataPerStripe
		hi := lo + f.dataPerStripe
		if hi > f.size {
			hi = f.size
		}
		dst := scratch
		if hi-lo == stripeBytes {
			dst = res.Data[lo:hi]
		}
		if err := code.ParallelReadInto(blocks, dst); err != nil {
			return fmt.Errorf("dfs: carousel read of %s stripe %d: %w", f.name, si, err)
		}
		if hi-lo != stripeBytes {
			copy(res.Data[lo:hi], dst[:hi-lo])
		}
	}
	wg.Wait(p)
	fsp.SetAttr("bytes", res.BytesFetched).End()
	res.DecodeBytes = decodeWork
	_, dsp := obs.StartSpan(ctx, "decode")
	dsp.SetAttr("bytes", decodeWork)
	if sec := fs.decodeSeconds(f.scheme, int(decodeWork)); sec > 0 {
		client.Compute(p, 0, sec)
	}
	dsp.End()
	return nil
}

// CorruptBlock flips a byte of a stored block's content — a test and
// fault-injection hook standing in for bit rot.
func (fs *FS) CorruptBlock(name string, stripeIdx, blockIdx, offset int) error {
	f, err := fs.File(name)
	if err != nil {
		return err
	}
	if stripeIdx < 0 || stripeIdx >= len(f.stripes) {
		return fmt.Errorf("dfs: stripe %d out of range", stripeIdx)
	}
	st := f.stripes[stripeIdx]
	if blockIdx < 0 || blockIdx >= len(st.blocks) {
		return fmt.Errorf("dfs: block %d out of range", blockIdx)
	}
	b := st.blocks[blockIdx]
	if offset < 0 || offset >= len(b.content) {
		return fmt.Errorf("dfs: offset %d out of range [0,%d)", offset, len(b.content))
	}
	b.content[offset] ^= 0xff
	return nil
}

// quarantineCorrupt removes the replicas of every block of f whose content
// no longer matches its ingest checksum — the read-time integrity gate.
// It returns the number of blocks quarantined and counts them in the FS
// stats.
func (fs *FS) quarantineCorrupt(f *File) int {
	quarantined := 0
	for _, st := range f.stripes {
		for _, b := range st.blocks {
			if len(b.locations) == 0 {
				continue
			}
			if frame.Checksum(b.content) != b.crc {
				b.locations = nil
				quarantined++
			}
		}
	}
	fs.stats.CorruptDetected += int64(quarantined)
	return quarantined
}
