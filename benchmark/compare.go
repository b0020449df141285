package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the tools read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet is what -compare keeps of one results file, per workload: each
// end-to-end metric's value in every untraced run, and over all runs the
// failed operations plus the runs that were incorrect without one.
type runSet struct {
	values map[string]map[string][]float64
	failed map[string]int64
}

func loadRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{values: make(map[string]map[string][]float64), failed: make(map[string]int64)}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set.failed[r.Workload] += r.Failed
		if !r.Correct && r.Failed == 0 {
			set.failed[r.Workload]++
		}
		if r.Trace {
			continue
		}
		if set.values[r.Workload] == nil {
			set.values[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			set.values[r.Workload][name] = append(set.values[r.Workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// compareFiles prints one row per end-to-end metric and workload: both
// medians, how much worse the second is, the bound, and a verdict. A
// metric whose run-to-run spread on either side is wider than its bound is
// unresolved, not unchanged. A workload with a failed operation on either
// side is regressed whatever its metrics say: the bound on failures is 0,
// absolute. It returns the process exit status.
func compareFiles(w io.Writer, specPath string, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two results files")
		return 3
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 3
	}
	var sides [2]*runSet
	for i, path := range files {
		if sides[i], err = loadRuns(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 3
		}
	}
	fmt.Fprintf(w, "%-14s %-26s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	regressed, unresolved := 0, 0
	for _, wl := range spec.Workloads {
		for _, sm := range spec.EndToEnd {
			a, b := sides[0].values[wl.Name][sm.Name], sides[1].values[wl.Name][sm.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-14s %-26s %12s %12s %8s %7s %7s  %s\n", wl.Name, sm.Name, "-", "-", "-", "-", "-", "unresolved (missing)")
				unresolved++
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if sm.Better == "higher" {
				worse = -worse
			}
			noise := max(spread(a), spread(b))
			verdict := "ok"
			switch {
			case noise > sm.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > sm.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-26s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, sm.Name, ma, mb, 100*worse, 100*noise, 100*sm.Bound, verdict)
		}
		fa, fb := sides[0].failed[wl.Name], sides[1].failed[wl.Name]
		verdict := "ok"
		if fa > 0 || fb > 0 {
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(w, "%-14s %-26s %12d %12d %8s %7s %7d  %s\n", wl.Name, "failed operations", fa, fb, "-", "-", 0, verdict)
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	switch {
	case regressed > 0:
		return 1
	case unresolved > 0:
		return 2
	}
	return 0
}
