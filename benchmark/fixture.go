package main

import (
	"context"
	"fmt"
	"runtime"

	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/workload"
)

// The fixture every workload runs against: Carousel(12,6,10,10) over 12
// in-process block servers on loopback and one Store with default options.
const (
	codeN, codeK, codeD, codeP = 12, 6, 10, 10

	largeBlock   = 43680 // 32 stripes of 6 such blocks make a file of ~8 MiB
	largeStripes = 32
	largeFiles   = 4

	smallBlock   = 4095 // one stripe of 6 such blocks makes a 24,570-B object
	swarmObjects = 1024
	swarmCache   = 2 << 20 // ~8% of the 24 MiB population
	swarmWarmup  = 2000
	swarmZipfS   = 1.1

	deadServer   = 2 // one of the p sources; closed for read_degraded
	failedServer = 3 // rebuilt in place by recover_node
)

// object is one seeded file. data holds the versions the benchmark writes
// (read workloads keep one only until it is stored); crc is the CRC32C of
// each version, taken at seeding.
type object struct {
	name string
	size int
	data [][]byte
	crc  []uint32
}

type fixture struct {
	spec    *workloadSpec
	code    *carousel.Code
	servers []*blockserver.Server
	addrs   []string
	store   *blockserver.Store
	block   int // block size in bytes
	stripe  int // user bytes per stripe
	objects []object
	seq     *sequence // the run's one seeded stream of object choices
	scratch []byte    // write_large: where a rewrite is read back
	// blockCRC[file][stripe] is the CRC32C of the block the failed server
	// holds, as first encoded (recover_node only).
	blockCRC [][]uint32
}

// newFixture starts the cluster, seeds the workload's files through the
// Store and warms it up. Everything it does counts as set-up time.
func newFixture(ctx context.Context, spec *workloadSpec, seed int64) (_ *fixture, err error) {
	f := &fixture{spec: spec, block: largeBlock}
	if spec.small {
		f.block = smallBlock
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.code, err = carousel.New(codeN, codeK, codeD, codeP); err != nil {
		return nil, err
	}
	f.stripe = codeK * f.block
	for i := 0; i < codeN; i++ {
		srv := blockserver.NewServer(f.code)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, addr)
	}
	var opts []blockserver.StoreOption
	if spec.cacheBytes > 0 {
		opts = append(opts, blockserver.WithStripeCache(spec.cacheBytes))
	}
	if f.store, err = blockserver.NewStore(f.code, f.addrs, f.block, opts...); err != nil {
		return nil, err
	}

	count, size, versions := largeFiles, largeStripes*f.stripe, 1
	if spec.small {
		count, size = swarmObjects, f.stripe
	}
	if spec.rewrites {
		versions = 2
	}
	f.objects = make([]object, count)
	for i := range f.objects {
		o := &f.objects[i]
		o.name = fmt.Sprintf("%s/obj%04d", spec.name, i)
		o.size = size
		for v := 0; v < versions; v++ {
			data := workload.Text(size, seed+int64(i)+int64(v*count))
			o.data = append(o.data, data)
			o.crc = append(o.crc, blockserver.Checksum(data))
		}
		if _, err := f.store.WriteFile(ctx, o.name, o.data[0]); err != nil {
			return nil, fmt.Errorf("seed %s: %w", o.name, err)
		}
		if !spec.rewrites {
			o.data = nil
		}
	}
	f.seq = newSequence(spec, seed, count)
	if err := spec.prepare(ctx, f); err != nil {
		return nil, fmt.Errorf("prepare %s: %w", spec.name, err)
	}
	return f, nil
}

func (f *fixture) close() {
	if f.store != nil {
		f.store.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// stripes is how many stripes object o spans.
func (f *fixture) stripes(o *object) int { return o.size / f.stripe }

// clients is the closed loop's client count: one for large files, whose
// parallelism the Store's own pipeline supplies, and one per core (at
// most two) for single-stripe objects.
func (f *fixture) clients() int {
	if !f.spec.small {
		return 1
	}
	return min(runtime.NumCPU(), 2)
}
