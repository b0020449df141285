package dfs

import (
	"context"
	"fmt"
	"sort"

	"carousel/internal/cluster"
	"carousel/internal/frame"
	"carousel/internal/obs"
)

// Repair metrics, incremented once per reconstructed block.
var (
	mRepairTraffic = obs.Default().Counter("dfs_repair_traffic_bytes_total")
	mRepairHelpers = obs.Default().Counter("dfs_repair_helpers_total")
)

// RepairResult reports a completed block reconstruction.
type RepairResult struct {
	// TrafficBytes is the total network transfer the repair consumed —
	// the quantity of Fig. 7.
	TrafficBytes int64
	// Helpers is the number of source blocks contacted.
	Helpers int
	// NewcomerID is the datanode now holding the regenerated block.
	NewcomerID int
}

// Reconstruct regenerates block blockIdx of the given stripe onto the
// newcomer node, using the scheme's repair path: a replica copy for
// replication, the d-helper chunk protocol for a coded file (k whole
// blocks at d = k, the MSR optimum at d > k). It must be called from
// within a simulation process.
func (fs *FS) Reconstruct(p *cluster.Proc, name string, stripeIdx, blockIdx int, newcomer *cluster.Node) (*RepairResult, error) {
	_, sp := obs.StartSpan(context.Background(), "dfs.repair")
	sp.SetAttr("file", name).SetAttr("stripe", stripeIdx).SetAttr("block", blockIdx)
	defer sp.End()
	f, err := fs.File(name)
	if err != nil {
		return nil, err
	}
	if stripeIdx < 0 || stripeIdx >= len(f.stripes) {
		return nil, fmt.Errorf("dfs: stripe %d out of range", stripeIdx)
	}
	st := f.stripes[stripeIdx]
	if blockIdx < 0 || blockIdx >= len(st.blocks) {
		return nil, fmt.Errorf("dfs: block %d out of range", blockIdx)
	}
	res := &RepairResult{NewcomerID: newcomer.ID}
	switch s := f.scheme.(type) {
	case Replication:
		b := st.blocks[blockIdx]
		if len(b.locations) == 0 {
			return nil, fmt.Errorf("%w: no surviving replica", ErrUnavailable)
		}
		src := fs.node(b.locations[0])
		cluster.ReadRemote(p, src, newcomer, float64(f.blockSize))
		newcomer.WriteLocal(p, float64(f.blockSize))
		res.TrafficBytes = int64(f.blockSize)
		res.Helpers = 1
		b.locations = append(b.locations, newcomer.ID)

	case Carousel:
		code := s.Code
		var helpers []int
		for i := 0; i < code.N() && len(helpers) < code.D(); i++ {
			if i != blockIdx && st.available(i) {
				helpers = append(helpers, i)
			}
		}
		if len(helpers) < code.D() {
			return nil, fmt.Errorf("%w: %d helpers of %d", ErrUnavailable, len(helpers), code.D())
		}
		chunkSize := code.HelperChunkSize(f.blockSize)
		// With an MSR base (d > k) each helper reads its block, combines
		// it into a chunk and uploads that: store-and-forward, because the
		// chunk exists only once the block is read. At d = k the chunk is
		// the block itself, so it streams from the helper's disk to the
		// newcomer like any remote read. All helpers work concurrently.
		computes := code.D() > code.K()
		sim := fs.cluster.Sim()
		wg := sim.NewWaitGroup()
		chunks := make([][]byte, len(helpers))
		for i, h := range helpers {
			wg.Add(1)
			i, h := i, h
			src := fs.node(st.blocks[h].locations[0])
			sim.Go("repair-helper", func(sp *cluster.Proc) {
				defer wg.Done()
				ch, err := code.HelperChunk(h, blockIdx, st.blocks[h].content)
				if err != nil {
					panic(fmt.Sprintf("dfs: helper chunk: %v", err))
				}
				chunks[i] = ch
				if !computes {
					cluster.ReadRemote(sp, src, newcomer, float64(chunkSize))
					return
				}
				src.ReadLocal(sp, float64(f.blockSize))
				if sec := fs.decodeSeconds(f.scheme, chunkSize); sec > 0 {
					src.Compute(sp, 0, sec)
				}
				cluster.SendRemote(sp, src, newcomer, float64(chunkSize))
			})
		}
		wg.Wait(p)
		block, err := code.RepairBlock(blockIdx, helpers, chunks)
		if err != nil {
			return nil, fmt.Errorf("dfs: carousel repair: %w", err)
		}
		if sec := fs.decodeSeconds(f.scheme, f.blockSize); sec > 0 {
			newcomer.Compute(p, 0, sec)
		}
		newcomer.WriteLocal(p, float64(f.blockSize))
		st.blocks[blockIdx].content = block
		st.blocks[blockIdx].crc = frame.Checksum(block)
		st.blocks[blockIdx].locations = []int{newcomer.ID}
		res.TrafficBytes = int64(len(helpers)) * int64(chunkSize)
		res.Helpers = len(helpers)

	default:
		return nil, fmt.Errorf("dfs: unknown scheme %T", f.scheme)
	}
	sp.SetAttr("scheme", f.scheme.Name()).SetAttr("traffic_bytes", res.TrafficBytes).SetAttr("helpers", res.Helpers)
	obs.Default().Counter("dfs_repairs_total", "scheme", f.scheme.Name()).Inc()
	mRepairTraffic.Add(res.TrafficBytes)
	mRepairHelpers.Add(int64(res.Helpers))
	fs.stats.BytesRepair += res.TrafficBytes
	return res, nil
}

// DefaultRecoverConcurrency is how many block reconstructions a
// RecoverNode pass keeps in flight (in simulated time) when
// SetRecoverConcurrency has not been called.
const DefaultRecoverConcurrency = 4

// SetRecoverConcurrency bounds how many block reconstructions RecoverNode
// runs concurrently. 1 restores the strictly sequential walk; values <= 0
// are ignored.
func (fs *FS) SetRecoverConcurrency(n int) {
	if n > 0 {
		fs.recoverConc = n
	}
}

// RecoverNode regenerates every block that lost its last replica when the
// given node failed, spreading the regenerated blocks across the surviving
// datanodes (round-robin, skipping nodes already holding a block of the
// same stripe). Call FailNode first; RecoverNode then walks all files.
// Reconstructions run through a bounded set of simulated processes
// (SetRecoverConcurrency, default DefaultRecoverConcurrency) so simulated
// recovery time reflects cross-stripe parallelism — the Fig. 11 model —
// while newcomer assignment stays deterministic. It returns the aggregate
// result.
func (fs *FS) RecoverNode(p *cluster.Proc, failedID int) (*RepairResult, error) {
	type job struct {
		name     string
		stripe   int
		block    int
		newcomer *cluster.Node
	}
	// Enumerate lost blocks and assign newcomers up front, in the same
	// cursor order the sequential walk used; the per-stripe assigned set
	// keeps two lost blocks of one stripe off the same node even though no
	// location update has landed yet.
	var jobs []job
	cursor := 0
	for _, name := range fs.fileNames() {
		f := fs.files[name]
		for si, st := range f.stripes {
			var assigned map[int]bool
			for bi, b := range st.blocks {
				if len(b.locations) > 0 {
					continue
				}
				if assigned == nil {
					assigned = make(map[int]bool)
				}
				newcomer, err := fs.pickNewcomer(st, failedID, &cursor, assigned)
				if err != nil {
					return nil, err
				}
				assigned[newcomer.ID] = true
				jobs = append(jobs, job{name: name, stripe: si, block: bi, newcomer: newcomer})
			}
		}
	}
	agg := &RepairResult{NewcomerID: -1}
	if len(jobs) == 0 {
		return agg, nil
	}
	conc := fs.recoverConc
	if conc <= 0 {
		conc = DefaultRecoverConcurrency
	}
	// One simulated process per block, bounded by a slot pool. The sim is
	// cooperative (one process runs at a time), so the processes can share
	// FS state; only simulated time overlaps.
	sim := fs.cluster.Sim()
	slots := sim.NewSlotPool(conc)
	wg := sim.NewWaitGroup()
	results := make([]*RepairResult, len(jobs))
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		i, j := i, j
		sim.Go("recover-block", func(sp *cluster.Proc) {
			defer wg.Done()
			slots.Acquire(sp)
			defer slots.Release()
			results[i], errs[i] = fs.Reconstruct(sp, j.name, j.stripe, j.block, j.newcomer)
		})
	}
	wg.Wait(p)
	for i, err := range errs {
		if err != nil {
			j := jobs[i]
			return nil, fmt.Errorf("dfs: recovering %s stripe %d block %d: %w", j.name, j.stripe, j.block, err)
		}
		agg.TrafficBytes += results[i].TrafficBytes
		agg.Helpers += results[i].Helpers
	}
	return agg, nil
}

// fileNames returns file names in a deterministic order.
func (fs *FS) fileNames() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pickNewcomer selects a surviving datanode not already hosting a block of
// the stripe and not in the caller's extra exclusion set.
func (fs *FS) pickNewcomer(st *stripe, failedID int, cursor *int, exclude map[int]bool) (*cluster.Node, error) {
	hosts := make(map[int]bool)
	for _, b := range st.blocks {
		for _, l := range b.locations {
			hosts[l] = true
		}
	}
	for tries := 0; tries < len(fs.datanodes); tries++ {
		n := fs.datanodes[*cursor%len(fs.datanodes)]
		*cursor++
		if n.ID != failedID && !hosts[n.ID] && !exclude[n.ID] {
			return n, nil
		}
	}
	return nil, fmt.Errorf("%w: no eligible newcomer node", ErrUnavailable)
}
