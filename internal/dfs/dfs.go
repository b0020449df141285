// Package dfs models an HDFS-like distributed file system on top of the
// cluster simulator: a namenode's metadata (files, stripes, block
// locations), datanode block placement, encoded writes, parallel and
// degraded reads and replication, with per-read network traffic
// accounting. It does not repair: repair traffic and time are properties of
// the code, measured by codingbench and by the live block store.
//
// It is the substrate for the paper's cluster experiments: Fig. 9/10 run
// MapReduce over files stored with a Carousel code or replication; Fig. 11
// retrieves a file from datanodes whose read throughput is capped. The
// Reed-Solomon baseline of those figures is not a scheme of its own: it is
// the Carousel code at p = k, d = k.
// Block content is held in memory (the simulation charges transfer and
// compute time explicitly), so reads return real bytes and decodes are real
// decodes.
package dfs

import (
	"errors"
	"fmt"

	"carousel/internal/carousel"
	"carousel/internal/cluster"
	"carousel/internal/frame"
)

// Common errors.
var (
	// ErrNotFound is returned for unknown file names.
	ErrNotFound = errors.New("dfs: file not found")

	// ErrUnavailable is returned when too few blocks survive to serve a
	// request.
	ErrUnavailable = errors.New("dfs: data unavailable")

	// ErrExists is returned when writing a file name that is taken.
	ErrExists = errors.New("dfs: file already exists")

	// ErrCorrupt is returned when checksum verification rejects the last
	// available copy of a block, so a request cannot be served even
	// degraded. Corruption with surviving redundancy does not surface as
	// an error: the block is quarantined and decoded around.
	ErrCorrupt = errors.New("dfs: corrupt block")
)

// Scheme is a redundancy scheme a file can be stored with.
type Scheme interface {
	// Name identifies the scheme in stats and cost tables.
	Name() string
	// scheme is a sealed marker.
	scheme()
}

// Replication stores Copies full replicas of every block (Copies >= 1;
// Copies == 1 means no redundancy, the paper's "1x replication").
type Replication struct {
	Copies int
}

// Name implements Scheme.
func (r Replication) Name() string { return fmt.Sprintf("%dx-replication", r.Copies) }
func (Replication) scheme()        {}

// Carousel stores each stripe with an (n, k, d, p) Carousel code. The
// paper's baselines are points of it: (n, k, k, k) is systematic
// Reed-Solomon, (n, k, d, k) is product-matrix MSR.
type Carousel struct {
	Code *carousel.Code
}

// Name implements Scheme.
func (c Carousel) Name() string {
	return fmt.Sprintf("carousel(%d,%d,%d,%d)", c.Code.N(), c.Code.K(), c.Code.D(), c.Code.P())
}
func (Carousel) scheme() {}

// block is one stored block (or replica group).
type block struct {
	content []byte
	// crc records the Castagnoli CRC-32 of the content at write time, the
	// ground truth a read's integrity gate checks against.
	crc uint32
	// locations lists datanode IDs holding replicas; for coded schemes a
	// block has exactly one location. A lost replica is removed from the
	// list; the content stays for verification but is unreachable when no
	// locations remain.
	locations []int
}

// stripe groups the blocks of one coding stripe (or, for replication, one
// source block with its replicas as locations).
type stripe struct {
	blocks []*block
}

// File is the namenode's record of one stored file.
type File struct {
	name      string
	size      int
	blockSize int
	scheme    Scheme
	stripes   []*stripe
	// dataPerStripe is the number of original-data bytes each stripe
	// carries (k * blockSize for coded schemes, blockSize for
	// replication).
	dataPerStripe int
	// original keeps the source bytes for boundary fix-ups (the record
	// reader peeking past a split, as Hadoop's TextInputFormat does) and
	// for verification in tests.
	original []byte
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the original data size in bytes.
func (f *File) Size() int { return f.size }

// BlockSize returns the stored block size in bytes.
func (f *File) BlockSize() int { return f.blockSize }

// Scheme returns the redundancy scheme.
func (f *File) Scheme() Scheme { return f.scheme }

// Stripes returns the number of stripes.
func (f *File) Stripes() int { return len(f.stripes) }

// Stats accumulates traffic accounting across operations.
type Stats struct {
	// BytesRead counts bytes transferred from datanodes to clients.
	BytesRead int64
	// CorruptDetected counts blocks quarantined by read-time checksum
	// verification.
	CorruptDetected int64
}

// FS is the simulated distributed file system.
type FS struct {
	cluster   *cluster.Cluster
	datanodes []*cluster.Node
	files     map[string]*File
	next      int // round-robin placement cursor
	stats     Stats

	// DecodeBW maps scheme names to the client-side decode throughput in
	// bytes/second used to charge simulated time for degraded reads.
	// Missing entries mean decoding is free. The benchmark harness fills
	// this from real measured codec throughput.
	DecodeBW map[string]float64
}

// New creates a file system over the given datanodes.
func New(c *cluster.Cluster, datanodes []*cluster.Node) *FS {
	return &FS{
		cluster:   c,
		datanodes: datanodes,
		files:     make(map[string]*File),
		DecodeBW:  make(map[string]float64),
	}
}

// Datanodes returns the datanode list.
func (fs *FS) Datanodes() []*cluster.Node { return fs.datanodes }

// Stats returns a copy of the accumulated traffic counters.
func (fs *FS) Stats() Stats { return fs.stats }

// File looks up a file by name.
func (fs *FS) File(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f, nil
}

// place returns the next nodes for a stripe, spreading blocks across
// distinct datanodes.
func (fs *FS) place(count int) ([]int, error) {
	if count > len(fs.datanodes) {
		return nil, fmt.Errorf("dfs: stripe needs %d nodes but the cluster has %d datanodes", count, len(fs.datanodes))
	}
	ids := make([]int, count)
	for i := range ids {
		ids[i] = fs.datanodes[(fs.next+i)%len(fs.datanodes)].ID
	}
	fs.next = (fs.next + count) % len(fs.datanodes)
	return ids, nil
}

// Write stores data under name with the given block size and scheme. The
// write itself is not timed (no experiment in the paper measures ingest);
// it lays out metadata and block content.
func (fs *FS) Write(name string, data []byte, blockSize int, scheme Scheme) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if len(data) == 0 {
		return nil, errors.New("dfs: cannot store empty file")
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("dfs: invalid block size %d", blockSize)
	}
	f := &File{name: name, size: len(data), blockSize: blockSize, scheme: scheme,
		original: append([]byte(nil), data...)}
	switch s := scheme.(type) {
	case Replication:
		if s.Copies < 1 {
			return nil, fmt.Errorf("dfs: replication needs at least 1 copy, got %d", s.Copies)
		}
		f.dataPerStripe = blockSize
		for off := 0; off < len(data); off += blockSize {
			end := off + blockSize
			if end > len(data) {
				end = len(data)
			}
			content := make([]byte, blockSize)
			copy(content, data[off:end])
			locs, err := fs.place(s.Copies)
			if err != nil {
				return nil, err
			}
			f.stripes = append(f.stripes, &stripe{blocks: []*block{{content: content, crc: frame.Checksum(content), locations: locs}}})
		}
	case Carousel:
		if s.Code == nil {
			return nil, errors.New("dfs: carousel scheme has no code")
		}
		if blockSize%s.Code.BlockAlign() != 0 {
			return nil, fmt.Errorf("dfs: block size %d is not a multiple of the carousel alignment %d",
				blockSize, s.Code.BlockAlign())
		}
		if err := fs.writeCoded(f, data, blockSize, s.Code); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("dfs: unknown scheme %T", scheme)
	}
	fs.files[name] = f
	return f, nil
}

// writeCoded splits data into stripes of k blocks, encodes each into n
// blocks, and places them on distinct nodes.
func (fs *FS) writeCoded(f *File, data []byte, blockSize int, code *carousel.Code) error {
	k, n := code.K(), code.N()
	stripeData := k * blockSize
	f.dataPerStripe = stripeData
	for off := 0; off < len(data); off += stripeData {
		end := off + stripeData
		if end > len(data) {
			end = len(data)
		}
		chunk := make([]byte, stripeData)
		copy(chunk, data[off:end])
		shards := make([][]byte, k)
		for i := range shards {
			shards[i] = chunk[i*blockSize : (i+1)*blockSize]
		}
		blocks, err := code.Encode(shards)
		if err != nil {
			return err
		}
		locs, err := fs.place(n)
		if err != nil {
			return err
		}
		st := &stripe{blocks: make([]*block, n)}
		for i, b := range blocks {
			st.blocks[i] = &block{content: b, crc: frame.Checksum(b), locations: []int{locs[i]}}
		}
		f.stripes = append(f.stripes, st)
	}
	return nil
}

// FailBlock removes all replicas of block idx in the given stripe of the
// file, simulating an unavailable block.
func (fs *FS) FailBlock(name string, stripeIdx, blockIdx int) error {
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
	st.blocks[blockIdx].locations = nil
	return nil
}

// FailReplica removes a single replica of block idx in the given stripe
// (the which-th location). Other replicas stay reachable — the failure a
// replicated store sees when one machine dies.
func (fs *FS) FailReplica(name string, stripeIdx, blockIdx, which int) error {
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
	if which < 0 || which >= len(b.locations) {
		return fmt.Errorf("dfs: replica %d out of range (%d replicas)", which, len(b.locations))
	}
	b.locations = append(b.locations[:which], b.locations[which+1:]...)
	return nil
}

// Available reports whether block idx of the stripe has a reachable
// replica.
func (st *stripe) available(idx int) bool {
	return len(st.blocks[idx].locations) > 0
}

// node returns the cluster node with the given ID.
func (fs *FS) node(id int) *cluster.Node { return fs.cluster.Node(id) }

// BlockLocation returns the datanode ID of the first reachable replica of
// a block, or -1 when none survives.
func (fs *FS) BlockLocation(name string, stripeIdx, blockIdx int) int {
	f, err := fs.File(name)
	if err != nil {
		return -1
	}
	if stripeIdx < 0 || stripeIdx >= len(f.stripes) {
		return -1
	}
	st := f.stripes[stripeIdx]
	if blockIdx < 0 || blockIdx >= len(st.blocks) {
		return -1
	}
	if locs := st.blocks[blockIdx].locations; len(locs) > 0 {
		return locs[0]
	}
	return -1
}

// ReadRange returns up to length bytes of the original file starting at
// off, clipped at the file end. It serves the few-byte peeks a record
// reader makes past its split boundary; the transfer is not charged to the
// simulation (it is negligible next to the split itself).
func (fs *FS) ReadRange(name string, off, length int) ([]byte, error) {
	f, err := fs.File(name)
	if err != nil {
		return nil, err
	}
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("dfs: invalid range off=%d len=%d", off, length)
	}
	if off >= f.size {
		return nil, nil
	}
	end := off + length
	if end > f.size {
		end = f.size
	}
	out := make([]byte, end-off)
	copy(out, f.original[off:end])
	return out, nil
}

// decodeSeconds converts decode work in bytes to simulated seconds for a
// scheme.
func (fs *FS) decodeSeconds(scheme Scheme, bytes int) float64 {
	bw := fs.DecodeBW[scheme.Name()]
	if bw <= 0 {
		return 0
	}
	return float64(bytes) / bw
}
