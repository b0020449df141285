package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"carousel/internal/bench"
	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/workload"
)

// netJSONPath is where -json writes the machine-readable snapshot of the
// real-TCP pipelined read/write A/B (the `make bench-net` artifact).
const netJSONPath = "BENCH_clusterbench.json"

type netEntry struct {
	Case string `json:"case"`
	// GoMaxProcs is the per-row sweep axis: the GOMAXPROCS value this row
	// was measured under (see -maxprocs).
	GoMaxProcs  int     `json:"gomaxprocs"`
	MBps        float64 `json:"mb_per_s"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// DialsPerRead counts fresh TCP connections a steady-state operation
	// opens: zero once the pool is warm.
	DialsPerRead int64 `json:"dials_per_read"`
}

// figNet is the tentpole A/B on real sockets: the same multi-stripe file is
// read (and written) through two stores over one live TCP server set —
// the sequential baseline (one stripe in flight at a time) against the
// pipelined engine (depth-4 stripe pipeline); both ride the same pooled
// connections and pooled buffers, so the A/B isolates the pipeline. Unlike figures 9-11 this is
// not simulated: throughput, allocations, and dial counts come from
// testing.Benchmark over the loopback cluster. Each case is benchmarked
// reps times and the fastest rep is reported — scheduler noise only ever
// slows a run down, so best-of-reps is the least-noise estimate of what
// each engine can actually sustain. The sweep slice runs the whole A/B
// once per GOMAXPROCS value (pinning the runtime and the worker pool via
// setMaxProcs), contributing one row per case per value.
func figNet(mib, reps int, sweep []int, jsonOut bool) error {
	if mib < 1 {
		mib = 1
	}
	if reps < 1 {
		reps = 1
	}
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		return err
	}
	// ~256 KiB of original data per stripe: the small-split regime EC-Cache
	// style caches run in, where per-stripe latency (dials, round trips,
	// per-RPC overhead) — not wire bandwidth — bounds a sequential reader,
	// which is exactly what the pipeline is built to hide.
	stripes := mib * 4
	if stripes < 8 {
		stripes = 8
	}
	k := code.K()
	blockSize := (mib << 20) / (stripes * k)
	blockSize -= blockSize % code.BlockAlign()
	if blockSize <= 0 {
		blockSize = code.BlockAlign()
	}
	size := stripes * k * blockSize
	bench.Section(os.Stdout, fmt.Sprintf(
		"Net A/B: %d-stripe ReadFile/WriteFile over real TCP, Carousel(12,6,10,10), %.1f MiB file",
		stripes, float64(size)/(1<<20)))

	srvs := make([]*blockserver.Server, code.N())
	addrs := make([]string, code.N())
	for i := range srvs {
		srvs[i] = blockserver.NewServer(code)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srvs[i].Close()
		addrs[i] = addr
	}
	data := workload.Text(size, 17)

	variants := []netVariant{
		{"sequential", "baseline", []blockserver.StoreOption{blockserver.WithPipelineDepth(1)}},
		{"pipelined", "engine", nil},
	}
	results := make([]netEntry, 0, 2*len(variants)*len(sweep))
	for _, mp := range sweep {
		setMaxProcs(mp)
		if len(sweep) > 1 {
			bench.Section(os.Stdout, fmt.Sprintf("GOMAXPROCS = %d", mp))
		}
		rows, err := netPass(reps, mp, code, addrs, blockSize, size, data, variants)
		if err != nil {
			return err
		}
		results = append(results, rows...)
	}
	if jsonOut {
		return writeNetJSON(mib, stripes, reps, results)
	}
	return nil
}

// netVariant is one engine configuration of the read/write A/B.
type netVariant struct {
	name string
	key  string
	opts []blockserver.StoreOption
}

// netPass runs the read/write A/B once at the current GOMAXPROCS, printing
// its table and speedup lines and returning the JSON rows stamped with mp.
func netPass(reps, mp int, code *carousel.Code, addrs []string, blockSize, size int, data []byte,
	variants []netVariant) ([]netEntry, error) {
	ctx := context.Background()
	t := bench.NewTable(os.Stdout, "case", "MB/s", "ms/op", "allocs/op", "dials/read")
	results := make([]netEntry, 0, 2*len(variants))
	speedup := make(map[string]float64)
	for _, v := range variants {
		st, err := blockserver.NewStore(code, addrs, blockSize, v.opts...)
		if err != nil {
			return nil, err
		}
		// Seed the file (and for the write benchmark, measure re-writes of
		// the same blocks on warm servers).
		if _, err := st.WriteFile(ctx, "netfile", data); err != nil {
			st.Close()
			return nil, err
		}
		out, _, err := st.ReadFile(ctx, "netfile", size)
		if err != nil {
			st.Close()
			return nil, err
		}
		if !bytes.Equal(out, data) {
			st.Close()
			return nil, fmt.Errorf("%s: read mismatch", v.name)
		}
		// Steady-state dial cost of one read, after the pool is warm.
		_, stats, err := st.ReadFile(ctx, "netfile", size)
		if err != nil {
			st.Close()
			return nil, err
		}
		var dials int64
		for _, d := range stats.Dials {
			dials += d
		}
		for _, op := range []struct {
			kind string
			run  func() error
		}{
			{"read", func() error {
				out, _, err := st.ReadFile(ctx, "netfile", size)
				if err == nil && len(out) != size {
					err = fmt.Errorf("short read: %d of %d", len(out), size)
				}
				return err
			}},
			{"write", func() error {
				_, err := st.WriteFile(ctx, "netfile", data)
				return err
			}},
		} {
			var benchErr error
			var r testing.BenchmarkResult
			for rep := 0; rep < reps && benchErr == nil; rep++ {
				rr := testing.Benchmark(func(b *testing.B) {
					b.SetBytes(int64(size))
					for i := 0; i < b.N && benchErr == nil; i++ {
						benchErr = op.run()
					}
				})
				if rep == 0 || rr.NsPerOp() < r.NsPerOp() {
					r = rr
				}
			}
			if benchErr != nil {
				st.Close()
				return nil, fmt.Errorf("%s %s: %w", v.name, op.kind, benchErr)
			}
			mbps := float64(size) * float64(r.N) / r.T.Seconds() / 1e6
			name := op.kind + "/" + v.name
			e := netEntry{
				Case:        name,
				GoMaxProcs:  mp,
				MBps:        mbps,
				NsPerOp:     r.NsPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			dialCell := "-"
			if op.kind == "read" {
				e.DialsPerRead = dials
				dialCell = fmt.Sprint(dials)
			}
			speedup[op.kind+"/"+v.key] = mbps
			results = append(results, e)
			t.Row(name, mbps, float64(r.NsPerOp())/1e6, r.AllocsPerOp(), dialCell)
		}
		st.Close()
	}
	t.Flush()
	for _, kind := range []string{"read", "write"} {
		base, eng := speedup[kind+"/baseline"], speedup[kind+"/engine"]
		if base > 0 {
			fmt.Printf("%s speedup: %.2fx (pipelined %.0f MB/s vs sequential %.0f MB/s)\n",
				kind, eng/base, eng, base)
		}
	}
	fmt.Println()
	return results, nil
}

// netSection is the read/write A/B's slot in the sectioned benchDoc.
type netSection struct {
	FileMiB int        `json:"file_mib"`
	Stripes int        `json:"stripes"`
	Reps    int        `json:"reps"`
	Code    string     `json:"code"`
	Results []netEntry `json:"results"`
	// Note labels a section kept for the record (the commit it was
	// measured at, when its variants no longer exist); a fresh run drops it.
	Note string `json:"note,omitempty"`
}

func writeNetJSON(mib, stripes, reps int, results []netEntry) error {
	return updateBenchJSON(func(doc *benchDoc) {
		doc.Net = &netSection{
			FileMiB: mib,
			Stripes: stripes,
			Reps:    reps,
			Code:    "Carousel(12,6,10,10)",
			Results: results,
		}
	})
}
