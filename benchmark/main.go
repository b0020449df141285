// Command benchmark is the repository's gated benchmark. One invocation
// runs one named workload against a live loopback cluster — 12 in-process
// block servers and a Store with default options over Carousel(12,6,10,10)
// — checks every byte the Store returns, and prints every metric by name
// and unit; the last line of standard output is the result as JSON.
//
//	benchmark --workload read_large --seed 1 --seconds 10 --trace 0
//	benchmark --workload read_large --seed 1 --seconds 10 --trace 1
//	benchmark -compare a.jsonl b.jsonl
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer ones, from a walk over each layer's public functions and from
// the operation replayed call by call. README.md describes the workloads
// and the metrics; run.sh builds the program and runs a full set.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// defaultSeed feeds workload.Text, the Zipf generator and the uniform
// picker when --seed is not given.
const defaultSeed = 20170605

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a span file")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory the traced run writes trace-<workload>.jsonl to")
	results := flag.String("results", "", "file to append the result to, with its host stamp, as one line of JSON")
	compare := flag.Bool("compare", false, "compare the two results files given as arguments and exit 0 (all ok), 1 (regressed) or 2 (unresolved)")
	spec := flag.String("spec", "BENCHMARK.json", "metric directions and bounds, for -compare")
	flag.Parse()

	if *compare {
		os.Exit(compareFiles(os.Stdout, *spec, flag.Args()))
	}
	cfg.trace = *trace != 0
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *results != "" {
		if err := appendResult(*results, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printResult prints the run for a reader, then the line the acceptance
// driver parses: exactly correct, attempted, failed and metrics.
func printResult(res *result) {
	h := res.Host
	fmt.Printf("workload %s  seed %d  window %gs  trace %v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, gf256 %s, %s, git %s\n", h.CPU, h.NumCPU, h.GoMaxProcs, h.GF256Tier, h.GoVersion, h.GitSHA)
	fmt.Printf("network: %s\n", h.Network)
	fmt.Printf("operations: %d attempted, %d failed, %d latency samples\n", res.Attempted, res.Failed, res.Samples)
	if res.Error != "" {
		fmt.Printf("INCORRECT: %s\n", res.Error)
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if v, ok := res.Metrics[d.name]; ok {
				fmt.Printf("  %-44s %14.6g %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
}

// appendResult adds the run to a results file: one JSON object per line,
// so a set of runs is merged by appending.
func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
