// Command carouselctl encodes, inspects, decodes, and repairs files on the
// local file system with a Carousel code, the on-disk analog of the
// paper's HDFS integration.
//
// Usage:
//
//	carouselctl encode [-n 12 -k 6 -d 10 -p 12] <input-file> <out-dir>
//	carouselctl info   <out-dir>
//	carouselctl decode <out-dir> <output-file>
//	carouselctl repair -block <i> <out-dir>
//	carouselctl stats  -addrs host:port,host:port,...
//	carouselctl trace  [-addrs ...] [-master host:port] <trace-id>
//	carouselctl top    [-master host:port] [-interval 2s] [-count N]
//	carouselctl cluster status [-master host:port]
//	carouselctl cluster drain  [-master host:port] <member-addr>
//	carouselctl cluster put    [-master host:port] [-name stored-name] <file>
//	carouselctl cluster get    [-master host:port] [-count N] [-cache MiB] <stored-name> <out-file>
//
// encode writes out-dir/block_NNN.bin plus a manifest.json recording the
// code parameters and the original size. decode tolerates up to n-k
// missing or deleted block files (it uses the Section VII parallel read,
// patching from parity units once the spares are gone). repair
// regenerates one missing block from d surviving blocks, moving only the
// optimal amount of data off the helper blocks. stats scrapes the -obs-addr endpoints of a set of
// blockserverd nodes and prints merged cluster-wide metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/obs"
	"carousel/internal/reedsolomon"
)

// manifest records the parameters of an encoded directory.
type manifest struct {
	N, K, D, P int
	BlockSize  int
	FileSize   int
	SourceName string
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	case "repair":
		err = cmdRepair(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		obs.SetDefaultLogger(false).Error("command failed", "cmd", os.Args[1], "err", err)
		os.Exit(exitCode(err))
	}
}

// Exit codes, distinguishable by callers and scripts. Usage errors exit 2
// (flag package convention); sentinel failures from the block path get
// their own codes so a wrapper can tell "file is gone" from "file is
// rotting" from "cluster is slow".
const (
	exitFailure         = 1
	exitUsage           = 2
	exitNotFound        = 3
	exitCorrupt         = 4
	exitTimeout         = 5
	exitTooFewSurvivors = 6
	exitPartialStats    = 7
)

// errPartialStats marks a stats scrape that merged some nodes but not all:
// the output is usable, the cluster view is incomplete.
var errPartialStats = errors.New("partial stats")

// exitCode maps an error to the process exit code via errors.Is, so
// wrapped and joined errors classify the same as bare sentinels. Order
// matters: corruption and survivor shortfalls are more specific (and more
// actionable) than the timeouts that often accompany them.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, blockserver.ErrCorrupt):
		return exitCorrupt
	case errors.Is(err, blockserver.ErrTooFewSurvivors),
		errors.Is(err, carousel.ErrTooFewBlocks):
		return exitTooFewSurvivors
	case errors.Is(err, blockserver.ErrNotFound), errors.Is(err, os.ErrNotExist):
		return exitNotFound
	case errors.Is(err, blockserver.ErrTimeout):
		return exitTimeout
	case errors.Is(err, errPartialStats):
		return exitPartialStats
	default:
		return exitFailure
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  carouselctl encode [-n 12 -k 6 -d 10 -p 12] <input-file> <out-dir>
  carouselctl info   <out-dir>
  carouselctl decode <out-dir> <output-file>
  carouselctl repair -block <i> <out-dir>
  carouselctl verify <out-dir>
  carouselctl stats  -addrs host:port,host:port,... [-raw]
  carouselctl trace  [-addrs host:port,...] [-master host:port] <trace-id>
  carouselctl top    [-master host:port] [-interval 2s] [-count N]
  carouselctl cluster status [-master host:port]
  carouselctl cluster drain  [-master host:port] <member-addr>
  carouselctl cluster put    [-master host:port] [-name stored-name] <file>
  carouselctl cluster get    [-master host:port] [-count N] [-cache MiB] <stored-name> <out-file>`)
	os.Exit(2)
}

// cmdVerify decodes from the available blocks, re-encodes, and reports any
// block whose on-disk content disagrees — detecting both bit rot and
// mismatched block files.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	dir := fs.Arg(0)
	m, code, err := loadManifest(dir)
	if err != nil {
		return err
	}
	blocks, present, err := loadBlocks(dir, m)
	if err != nil {
		return err
	}
	var avail []int
	for i, ok := range present {
		if ok {
			avail = append(avail, i)
		}
	}
	if len(avail) < m.K {
		return fmt.Errorf("%w: only %d blocks present, need %d to verify",
			blockserver.ErrTooFewSurvivors, len(avail), m.K)
	}
	// A corrupt block poisons any decode that uses it, so try k-subsets in
	// rotation and keep the reference that disagrees with the fewest
	// blocks: the subset avoiding all corruption wins whenever at most
	// n-k blocks are bad.
	best := -1
	var bestExpect [][]byte
	for rot := 0; rot < len(avail); rot++ {
		subset := make([][]byte, m.N)
		for j := 0; j < m.K; j++ {
			idx := avail[(rot+j)%len(avail)]
			subset[idx] = blocks[idx]
		}
		shards, err := code.Decode(subset)
		if err != nil {
			continue
		}
		expect, err := code.Encode(shards)
		if err != nil {
			return err
		}
		bad := 0
		for _, i := range avail {
			if !bytes.Equal(blocks[i], expect[i]) {
				bad++
			}
		}
		if best < 0 || bad < best {
			best, bestExpect = bad, expect
			if bad == 0 {
				break
			}
		}
	}
	if best < 0 {
		return fmt.Errorf("%w: no decodable k-subset found", blockserver.ErrCorrupt)
	}
	for i, ok := range present {
		switch {
		case !ok:
			fmt.Printf("block %2d: missing\n", i)
		case !bytes.Equal(blocks[i], bestExpect[i]):
			fmt.Printf("block %2d: CORRUPT\n", i)
		}
	}
	if best > 0 {
		return fmt.Errorf("%w: %d corrupt block(s); regenerate them with `carouselctl repair`",
			blockserver.ErrCorrupt, best)
	}
	fmt.Println("all present blocks verify")
	return nil
}

func blockPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("block_%03d.bin", i))
}

func loadManifest(dir string) (*manifest, *carousel.Code, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil, fmt.Errorf("parsing manifest: %w", err)
	}
	code, err := carousel.New(m.N, m.K, m.D, m.P)
	if err != nil {
		return nil, nil, err
	}
	if m.BlockSize <= 0 {
		return nil, nil, fmt.Errorf("manifest: block size %d is not positive", m.BlockSize)
	}
	if m.FileSize < 0 || m.FileSize > m.K*m.BlockSize {
		return nil, nil, fmt.Errorf("manifest: file size %d outside [0, %d] (k = %d blocks of %d bytes)", m.FileSize, m.K*m.BlockSize, m.K, m.BlockSize)
	}
	return &m, code, nil
}

// loadBlocks reads the available block files; missing files become nil.
func loadBlocks(dir string, m *manifest) ([][]byte, []bool, error) {
	blocks := make([][]byte, m.N)
	present := make([]bool, m.N)
	for i := 0; i < m.N; i++ {
		b, err := os.ReadFile(blockPath(dir, i))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, nil, fmt.Errorf("reading block %d: %w", i, err)
		}
		if len(b) != m.BlockSize {
			return nil, nil, fmt.Errorf("block %d has %d bytes, manifest says %d", i, len(b), m.BlockSize)
		}
		blocks[i] = b
		present[i] = true
	}
	return blocks, present, nil
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	n := fs.Int("n", 12, "total blocks per stripe")
	k := fs.Int("k", 6, "data blocks' worth of content per stripe")
	d := fs.Int("d", 10, "repair helpers (d=k for an RS base, d>=2k-2 for MSR)")
	p := fs.Int("p", 12, "data parallelism: blocks carrying original data")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	input, outDir := fs.Arg(0), fs.Arg(1)
	code, err := carousel.New(*n, *k, *d, *p)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(input)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("%s is empty", input)
	}
	shards, blockSize, err := reedsolomon.Split(data, *k, code.BlockAlign())
	if err != nil {
		return err
	}
	blocks, err := code.Encode(shards)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for i, b := range blocks {
		if err := os.WriteFile(blockPath(outDir, i), b, 0o644); err != nil {
			return err
		}
	}
	m := manifest{N: *n, K: *k, D: *d, P: *p, BlockSize: blockSize,
		FileSize: len(data), SourceName: filepath.Base(input)}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "manifest.json"), raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("encoded %s (%d bytes) into %d blocks of %d bytes under %s\n",
		input, len(data), *n, blockSize, outDir)
	fmt.Printf("data is embedded in the first %d blocks; any %d blocks decode; repair contacts %d helpers\n",
		*p, *k, *d)
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	dir := fs.Arg(0)
	m, code, err := loadManifest(dir)
	if err != nil {
		return err
	}
	_, present, err := loadBlocks(dir, m)
	if err != nil {
		return err
	}
	fmt.Printf("carousel(%d,%d,%d,%d): source %s, %d bytes, block size %d\n",
		m.N, m.K, m.D, m.P, m.SourceName, m.FileSize, m.BlockSize)
	fmt.Printf("repair traffic per lost block: %d bytes (%.2f blocks; RS would move %d)\n",
		code.ReconstructionTraffic(m.BlockSize),
		float64(code.ReconstructionTraffic(m.BlockSize))/float64(m.BlockSize),
		m.K*m.BlockSize)
	missing := 0
	for i, ok := range present {
		state := "present"
		if !ok {
			state = "MISSING"
			missing++
		}
		lo, hi := code.DataRange(i, m.BlockSize)
		if hi > lo {
			fmt.Printf("  block %2d: %s, holds file bytes [%d, %d)\n", i, state, lo, hi)
		} else {
			fmt.Printf("  block %2d: %s, parity only\n", i, state)
		}
	}
	switch {
	case missing == 0:
		fmt.Println("all blocks present")
	case missing <= m.N-m.K:
		fmt.Printf("%d block(s) missing; the file is still fully recoverable\n", missing)
	default:
		fmt.Printf("%d block(s) missing; DATA LOSS (more than n-k = %d)\n", missing, m.N-m.K)
	}
	return nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	dir, output := fs.Arg(0), fs.Arg(1)
	m, code, err := loadManifest(dir)
	if err != nil {
		return err
	}
	blocks, _, err := loadBlocks(dir, m)
	if err != nil {
		return err
	}
	data, err := code.ParallelRead(blocks)
	if err != nil {
		return err
	}
	if err := os.WriteFile(output, data[:m.FileSize], 0o644); err != nil {
		return err
	}
	fmt.Printf("decoded %d bytes to %s\n", m.FileSize, output)
	return nil
}

func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	idx := fs.Int("block", -1, "index of the block to regenerate")
	fs.Parse(args)
	if fs.NArg() != 1 || *idx < 0 {
		usage()
	}
	dir := fs.Arg(0)
	m, code, err := loadManifest(dir)
	if err != nil {
		return err
	}
	if *idx >= m.N {
		return fmt.Errorf("block %d out of range [0,%d)", *idx, m.N)
	}
	blocks, present, err := loadBlocks(dir, m)
	if err != nil {
		return err
	}
	helpers := make([]int, 0, m.D)
	for i := 0; i < m.N && len(helpers) < m.D; i++ {
		if i != *idx && present[i] {
			helpers = append(helpers, i)
		}
	}
	if len(helpers) < m.D {
		return fmt.Errorf("%w: only %d surviving blocks, need d=%d helpers",
			blockserver.ErrTooFewSurvivors, len(helpers), m.D)
	}
	chunks := make([][]byte, len(helpers))
	traffic := 0
	for i, h := range helpers {
		ch, err := code.HelperChunk(h, *idx, blocks[h])
		if err != nil {
			return err
		}
		chunks[i] = ch
		traffic += len(ch)
	}
	block, err := code.RepairBlock(*idx, helpers, chunks)
	if err != nil {
		return err
	}
	if err := os.WriteFile(blockPath(dir, *idx), block, 0o644); err != nil {
		return err
	}
	fmt.Printf("regenerated block %d from %d helpers, moving %d bytes (%.2f blocks; an RS repair moves %d)\n",
		*idx, len(helpers), traffic, float64(traffic)/float64(m.BlockSize), m.K*m.BlockSize)
	return nil
}
