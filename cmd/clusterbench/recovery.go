package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"carousel/internal/bench"
	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/faultnet"
	"carousel/internal/workload"
)

// benchDoc is the BENCH_clusterbench.json schema: one section per live-TCP
// figure, merged on write so `-fig net -json` and `-fig recovery -json`
// each refresh only their own section. GOMAXPROCS is a per-result-row axis
// (see netEntry/recoveryEntry), not a document-level fact, so a -maxprocs
// sweep can put every pass in one snapshot.
type benchDoc struct {
	Net      *netSection      `json:"net,omitempty"`
	Recovery *recoverySection `json:"recovery,omitempty"`
	Swarm    *swarmSection    `json:"swarm,omitempty"`
}

// updateBenchJSON reads the snapshot (tolerating a missing or old-schema
// file), lets the caller replace its section, and writes it back.
func updateBenchJSON(apply func(*benchDoc)) error {
	var doc benchDoc
	if raw, err := os.ReadFile(netJSONPath); err == nil {
		_ = json.Unmarshal(raw, &doc)
	}
	apply(&doc)
	out, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(netJSONPath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", netJSONPath)
	return nil
}

type recoverySection struct {
	FileMiB int `json:"file_mib"`
	Stripes int `json:"stripes"`
	Reps    int `json:"reps"`
	// DelayUS is the emulated per-write network latency injected at every
	// server (microseconds), identical for both variants.
	DelayUS int64           `json:"delay_us"`
	Code    string          `json:"code"`
	Results []recoveryEntry `json:"results"`
	// Note labels a section kept for the record, as netSection.Note does.
	Note string `json:"note,omitempty"`
}

type recoveryEntry struct {
	Case string `json:"case"`
	// GoMaxProcs is the per-row sweep axis: the GOMAXPROCS value this row
	// was measured under (see -maxprocs).
	GoMaxProcs int `json:"gomaxprocs"`
	// MBps is recovered block bytes per second — the Fig. 11 recovery
	// throughput quantity.
	MBps           float64 `json:"mb_per_s"`
	NsPerPass      int64   `json:"ns_per_pass"`
	BlocksRepaired int     `json:"blocks_repaired"`
	TrafficBytes   int64   `json:"traffic_bytes"`
	// HelpersUsed counts distinct helpers that served winning chunks in a
	// pass; with rotation this is all n-1 survivors.
	HelpersUsed int `json:"helpers_used"`
	// MaxOverMean is the hottest helper's chunk count over the mean across
	// the helpers used — 1.0 is perfectly balanced.
	MaxOverMean float64 `json:"max_over_mean_chunks"`
}

// helperSpread summarizes a pass's per-helper winning-chunk counts.
func helperSpread(chunks map[string]int64) (distinct int, maxOverMean float64) {
	var max, sum int64
	for _, c := range chunks {
		distinct++
		sum += c
		if c > max {
			max = c
		}
	}
	if distinct == 0 || sum == 0 {
		return distinct, 0
	}
	return distinct, float64(max) / (float64(sum) / float64(distinct))
}

// figRecovery is the recovery A/B on real sockets — the repo's Fig. 11
// reproduction for node repair: one server of a live 12-server loopback
// cluster is declared failed and every block it held (one per stripe) is
// regenerated, once through the sequential repair loop (concurrency 1) and
// once through the parallel recovery engine (depth-bounded pipeline); both
// rotate helpers with the stripe index. Every server sits behind a
// faultnet injector adding delay to each response write — the
// tc-netem-style stand-in for a real datacenter RTT, identical for both variants, without which loopback's ~0 latency
// would hide exactly the stall the engine exists to overlap. Both variants
// share the pooled store; the A/B isolates repair scheduling. Reported
// MB/s is regenerated block bytes per second; best-of-reps as in figNet.
// The sweep slice runs the whole A/B once per GOMAXPROCS value, one row
// per case per value.
func figRecovery(mib, reps int, delay time.Duration, sweep []int, jsonOut bool) error {
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
	const failed = 3
	bench.Section(os.Stdout, fmt.Sprintf(
		"Recovery A/B: regenerate server %d's %d blocks over real TCP, Carousel(12,6,10,10), %.1f MiB file, %s emulated per-write RTT",
		failed, stripes, float64(size)/(1<<20), delay))

	srvs := make([]*blockserver.Server, code.N())
	addrs := make([]string, code.N())
	for i := range srvs {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		in := faultnet.NewInjector()
		in.SetDefault(faultnet.Policy{DelayWrite: delay})
		srvs[i] = blockserver.NewServer(code)
		addr, err := srvs[i].StartListener(in.Wrap(raw))
		if err != nil {
			return err
		}
		defer srvs[i].Close()
		addrs[i] = addr
	}
	data := workload.Text(size, 23)

	variants := []recoveryVariant{
		{"sequential", "baseline", []blockserver.RecoveryOption{blockserver.WithRecoveryConcurrency(1)}},
		{"parallel", "engine", nil},
	}
	results := make([]recoveryEntry, 0, len(variants)*len(sweep))
	for _, mp := range sweep {
		setMaxProcs(mp)
		if len(sweep) > 1 {
			bench.Section(os.Stdout, fmt.Sprintf("GOMAXPROCS = %d", mp))
		}
		rows, err := recoveryPass(reps, mp, failed, code, addrs, blockSize, stripes, size, data, variants)
		if err != nil {
			return err
		}
		results = append(results, rows...)
	}
	if jsonOut {
		return updateBenchJSON(func(doc *benchDoc) {
			doc.Recovery = &recoverySection{
				FileMiB: mib,
				Stripes: stripes,
				Reps:    reps,
				DelayUS: delay.Microseconds(),
				Code:    "Carousel(12,6,10,10)",
				Results: results,
			}
		})
	}
	return nil
}

// recoveryVariant is one repair-scheduling configuration of the A/B.
type recoveryVariant struct {
	name string
	key  string
	opts []blockserver.RecoveryOption
}

// recoveryPass runs the recovery A/B once at the current GOMAXPROCS,
// printing its table and speedup line and returning the JSON rows stamped
// with mp.
func recoveryPass(reps, mp, failed int, code *carousel.Code, addrs []string, blockSize, stripes, size int,
	data []byte, variants []recoveryVariant) ([]recoveryEntry, error) {
	ctx := context.Background()
	files := []blockserver.FileSpec{{Name: "recfile", Size: size}}
	t := bench.NewTable(os.Stdout, "case", "MB/s", "ms/pass", "helpers used", "max/mean chunks")
	results := make([]recoveryEntry, 0, len(variants))
	speedup := make(map[string]float64)
	for _, v := range variants {
		st, err := blockserver.NewStore(code, addrs, blockSize)
		if err != nil {
			return nil, err
		}
		if _, err := st.WriteFile(ctx, "recfile", data); err != nil {
			st.Close()
			return nil, err
		}
		// One untimed pass warms pool connections and repair plans and
		// yields the helper-balance evidence for the table.
		rep, err := st.RecoverServer(ctx, failed, files, v.opts...)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		if rep.BlocksRepaired != stripes {
			st.Close()
			return nil, fmt.Errorf("%s: repaired %d blocks, want %d", v.name, rep.BlocksRepaired, stripes)
		}
		var benchErr error
		var r testing.BenchmarkResult
		for repi := 0; repi < reps && benchErr == nil; repi++ {
			rr := testing.Benchmark(func(b *testing.B) {
				b.SetBytes(rep.BytesRecovered)
				for i := 0; i < b.N && benchErr == nil; i++ {
					_, benchErr = st.RecoverServer(ctx, failed, files, v.opts...)
				}
			})
			if repi == 0 || rr.NsPerOp() < r.NsPerOp() {
				r = rr
			}
		}
		st.Close()
		if benchErr != nil {
			return nil, fmt.Errorf("%s: %w", v.name, benchErr)
		}
		mbps := float64(rep.BytesRecovered) * float64(r.N) / r.T.Seconds() / 1e6
		used, mom := helperSpread(rep.HelperChunks)
		speedup[v.key] = mbps
		results = append(results, recoveryEntry{
			Case:           v.name,
			GoMaxProcs:     mp,
			MBps:           mbps,
			NsPerPass:      r.NsPerOp(),
			BlocksRepaired: rep.BlocksRepaired,
			TrafficBytes:   rep.TrafficBytes,
			HelpersUsed:    used,
			MaxOverMean:    mom,
		})
		t.Row(v.name, mbps, float64(r.NsPerOp())/1e6, fmt.Sprintf("%d of %d", used, code.N()-1), fmt.Sprintf("%.2f", mom))
	}
	t.Flush()
	if base := speedup["baseline"]; base > 0 {
		fmt.Printf("recovery speedup: %.2fx (parallel engine %.0f MB/s vs sequential repair loop %.0f MB/s)\n",
			speedup["engine"]/base, speedup["engine"], base)
	}
	fmt.Println()
	return results, nil
}
