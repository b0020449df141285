// Package carousel is the public API of this repository: a Go
// implementation of Carousel codes from "On Data Parallelism of Erasure
// Coding in Distributed Storage Systems" (Jun Li and Baochun Li, ICDCS
// 2017), together with the systematic Reed-Solomon and product-matrix MSR
// codes it builds on and a simulated Hadoop-style evaluation stack
// (cluster, distributed file system, MapReduce).
//
// The primary entry point is New, which constructs an (n, k, d, p)
// Carousel code:
//
//	code, err := carousel.New(12, 6, 10, 12)
//	blocks, err := code.Encode(shards)   // data embedded in all 12 blocks
//	data, err := code.ParallelRead(blocks)
//
// Compared to a systematic (n, k) Reed-Solomon code, a Carousel code keeps
// the MDS property (any k of n blocks decode, optimal storage overhead)
// while spreading the original data over p blocks (k <= p <= n) so that p
// readers or map tasks consume original data in parallel, and while
// repairing a lost block from d helpers with the MSR-optimal network
// traffic of d/(d-k+1) blocks.
//
// The paper's baselines are parameter points of the same code: New(n, k, k,
// k) is the systematic Reed-Solomon code and New(n, k, d, k) the
// product-matrix MSR code, block for block. NewReedSolomon and NewMSR
// expose the base-code packages those points are checked against; Sim,
// NewCluster, NewFS, and NewMapReduce expose the evaluation substrate the
// examples, this package's benchmarks and its tests run on.
package carousel

import (
	"carousel/internal/blockserver"
	icarousel "carousel/internal/carousel"
	"carousel/internal/cluster"
	"carousel/internal/dfs"
	"carousel/internal/lrc"
	"carousel/internal/mapreduce"
	"carousel/internal/msr"
	"carousel/internal/reedsolomon"
)

// Code is an (n, k, d, p) Carousel code. See the internal/carousel package
// for construction details; all methods are documented on the type.
type Code = icarousel.Code

// ReadPlan describes how a Carousel full-file read is served: its fetch
// list (the Direct blocks' data prefixes plus the Ranges), the scheme that
// list follows (Mode), and the solve that completes the read (Solve, or
// ReadInto over in-memory blocks).
// Code.PlanRead memoizes its plans: a plan is shared by every caller that
// planned the same availability and block size, and must not be modified.
type ReadPlan = icarousel.ReadPlan

// Carousel error values.
var (
	// ErrTooFewBlocks is returned when fewer than k blocks are available.
	ErrTooFewBlocks = icarousel.ErrTooFewBlocks
	// ErrBlockSizeMismatch is returned for inconsistent or misaligned
	// block sizes.
	ErrBlockSizeMismatch = icarousel.ErrBlockSizeMismatch
	// ErrBlockCount is returned when the number of blocks does not match
	// the code parameters.
	ErrBlockCount = icarousel.ErrBlockCount
	// ErrBadHelpers is returned for invalid repair helper sets.
	ErrBadHelpers = icarousel.ErrBadHelpers
)

// New constructs an (n, k, d, p) Carousel code.
//
// n is the total number of blocks per stripe, k of which hold original
// data's worth of content; any k blocks decode the original data. p
// (k <= p <= n) is the data parallelism: the number of blocks that carry
// original data verbatim. d (k <= d < n) is the number of helpers used to
// repair a lost block; d == k uses a Reed-Solomon base (k-block repair
// traffic) and d >= 2k-2 uses a product-matrix MSR base with the optimal
// d/(d-k+1)-block repair traffic. Every code stripes large blocks across
// the process's GOMAXPROCS cores.
func New(n, k, d, p int) (*Code, error) {
	return icarousel.New(n, k, d, p)
}

// ReedSolomon is a systematic (n, k) Reed-Solomon code, the paper's
// baseline.
type ReedSolomon = reedsolomon.Code

// NewReedSolomon constructs a systematic (n, k) Reed-Solomon code.
func NewReedSolomon(n, k int) (*ReedSolomon, error) {
	return reedsolomon.New(n, k)
}

// MSR is a systematic (n, k, d) product-matrix minimum-storage
// regenerating code (Rashmi et al.), the paper's optimal-repair baseline.
type MSR = msr.Code

// NewMSR constructs an (n, k, d) MSR code; requires d >= 2k-2.
func NewMSR(n, k, d int) (*MSR, error) {
	return msr.New(n, k, d)
}

// LRC is an Azure-style locally repairable code LRC(k, l, g): k data
// blocks in l local groups with one local parity each, plus g global
// parities. A baseline for repair locality versus the MDS codes.
type LRC = lrc.Code

// NewLRC constructs an LRC(k, l, g) code; l must divide k.
func NewLRC(k, l, g int) (*LRC, error) {
	return lrc.New(k, l, g)
}

// Split divides data into k shards padded to a multiple of align, ready
// for Encode. It returns the shards and the shard size.
func Split(data []byte, k, align int) ([][]byte, int, error) {
	return reedsolomon.Split(data, k, align)
}

// Join reassembles the original data of the given size from shards
// produced by Split.
func Join(shards [][]byte, size int) ([]byte, error) {
	return reedsolomon.Join(shards, size)
}

// Simulation substrate re-exports: a deterministic discrete-event cluster
// (nodes, fair-shared bandwidth, compute slots), an HDFS-like file system,
// and a MapReduce engine. The examples, this package's Fig. 9 and 11
// benchmarks and its tests run on them; cmd/clusterbench imports
// internal/cluster, internal/dfs and internal/mapreduce directly.
type (
	// Sim is the discrete-event simulation kernel.
	Sim = cluster.Sim
	// Proc is a cooperative simulated process.
	Proc = cluster.Proc
	// Cluster is a set of simulated nodes.
	Cluster = cluster.Cluster
	// Node is one simulated machine.
	Node = cluster.Node
	// NodeSpec configures a node's disk, NIC, and compute capacity.
	NodeSpec = cluster.NodeSpec

	// FS is the simulated distributed file system.
	FS = dfs.FS
	// FSFile is a stored file's metadata.
	FSFile = dfs.File
	// Scheme is a storage redundancy scheme.
	Scheme = dfs.Scheme
	// SchemeReplication stores full replicas.
	SchemeReplication = dfs.Replication
	// SchemeCarousel stores Carousel-coded stripes; with the code at
	// p = k, d = k they are systematic Reed-Solomon stripes.
	SchemeCarousel = dfs.Carousel
	// ReadResult reports a completed file retrieval.
	ReadResult = dfs.ReadResult

	// MapReduce is the job engine over the simulated file system.
	MapReduce = mapreduce.Engine
	// MRJob describes one MapReduce job.
	MRJob = mapreduce.Job
	// MRResult reports a completed job.
	MRResult = mapreduce.Result
	// MRCostSpec calibrates simulated task costs.
	MRCostSpec = mapreduce.CostSpec
)

// Read modes for FS.Read.
const (
	// ReadParallel streams from all relevant datanodes concurrently.
	ReadParallel = dfs.ReadParallel
	// ReadSequential fetches block after block (hadoop fs -get).
	ReadSequential = dfs.ReadSequential
)

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim { return cluster.NewSim() }

// NewCluster creates count identical nodes in the simulation.
func NewCluster(s *Sim, count int, spec NodeSpec) *Cluster {
	return cluster.NewCluster(s, count, spec)
}

// NewFS creates a distributed file system over the given datanodes.
func NewFS(c *Cluster, datanodes []*Node) *FS { return dfs.New(c, datanodes) }

// NewMapReduce returns a MapReduce engine over the cluster and file
// system.
func NewMapReduce(c *Cluster, fs *FS, workers []*Node, spec MRCostSpec) *MapReduce {
	return mapreduce.NewEngine(c, fs, workers, spec)
}

// WordCountJob returns the paper's map-heavy wordcount benchmark job.
func WordCountJob(file string, reducers int) MRJob {
	return mapreduce.WordCountJob(file, reducers)
}

// TerasortJob returns the paper's shuffle-heavy terasort benchmark job.
func TerasortJob(file string, reducers int) MRJob {
	return mapreduce.TerasortJob(file, reducers)
}

// GrepJob returns a selective-scan job emitting only matching lines.
func GrepJob(file, pattern string, reducers int) MRJob {
	return mapreduce.GrepJob(file, pattern, reducers)
}

// Block-server re-exports: a real TCP block store whose servers compute
// Carousel repair chunks locally, so reconstructions move only the
// optimal chunk bytes (see examples/tcpcluster and cmd/blockserverd).
type (
	// BlockServer is one TCP block store.
	BlockServer = blockserver.Server
	// BlockClient talks to one BlockServer.
	BlockClient = blockserver.Client
	// BlockStore stripes files across n BlockServers.
	BlockStore = blockserver.Store
)

// NewBlockServer returns a TCP block server for blocks of the given code,
// which must not be nil: the server aligns its per-unit CRCs and computes
// repair chunks with it.
func NewBlockServer(code *Code) *BlockServer { return blockserver.NewServer(code) }

// DialBlockServer connects a client to a block server.
func DialBlockServer(addr string) (*BlockClient, error) { return blockserver.Dial(addr) }

// NewBlockStore stripes files across the given server addresses.
func NewBlockStore(code *Code, addrs []string, blockSize int) (*BlockStore, error) {
	return blockserver.NewStore(code, addrs, blockSize)
}
