package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// testWindow keeps the whole package well under 15 s: the point is that
// every workload runs, is correct and emits every declared metric, not
// that the numbers mean anything.
const testWindow = 0.2

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's own lists
// of workloads and metrics equal, name by name and unit by unit.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the program %q (%s)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200 fit", w.Name, len(w.Why))
		}
	}
	for _, c := range []struct {
		kind     string
		declared []specMetric
		emitted  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.emitted) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program emits %d", c.kind, len(c.declared), len(c.emitted))
		}
		for i, d := range c.declared {
			unique(d.Name)
			if d.Name != c.emitted[i].name || d.Unit != c.emitted[i].unit {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s], the program %s [%s]", c.kind, i, d.Name, d.Unit, c.emitted[i].name, c.emitted[i].unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestEveryWorkload runs each workload untraced and traced, on one fixture
// to save the second set-up, and checks the result: every declared metric
// exactly once, no failed operation, and the counts that must be exact.
func TestEveryWorkload(t *testing.T) {
	ctx := context.Background()
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t0 := time.Now()
			f, err := newFixture(ctx, w, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer f.close()
			setup := time.Since(t0).Seconds()
			plain, err := measure(ctx, f, config{seed: 7, seconds: testWindow})
			if err != nil {
				t.Fatal(err)
			}
			plain.Metrics.set("setup_s", setup)
			checkRun(t, plain, endToEnd)
			value := func(r *result, name string) float64 { return r.Metrics[name].Value }
			for name, v := range plain.Metrics {
				if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", name, v.Value)
				}
			}
			wantWire := map[string]float64{"read_large": 1, "write_large": 2, "recover_node": 2}
			if want, ok := wantWire[w.name]; ok && value(plain, "wire_bytes_per_user_byte") != want {
				t.Errorf("wire_bytes_per_user_byte = %v, want exactly %v", value(plain, "wire_bytes_per_user_byte"), want)
			}

			traced, err := measure(ctx, f, config{seed: 7, seconds: testWindow, trace: true, outDir: out})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, traced, perLayer)
			if v := value(traced, "fail_ratio"); v != 0 {
				t.Errorf("fail_ratio = %v", v)
			}
			degraded := w.name == "read_degraded"
			if v := value(traced, "store.stripes_fallback_ratio"); degraded && v != 1 || !degraded && v != 0 {
				t.Errorf("store.stripes_fallback_ratio = %v", v)
			}
			if v := value(traced, "store.dials_per_op"); !degraded && v != 0 {
				t.Errorf("store.dials_per_op = %v on a healthy, warm cluster", v)
			}
			shares := value(traced, "store.share_rpc") + value(traced, "store.share_codec") +
				value(traced, "store.share_cache") + value(traced, "store.share_other")
			if math.Abs(shares-1) > 0.02 {
				t.Errorf("store.share_* sum to %v, want 1", shares)
			}
			checkSpanFile(t, filepath.Join(out, "trace-"+w.name+".jsonl"))
		})
	}
}

func checkRun(t *testing.T, r *result, want []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct %v, %d attempted, %d failed: %s", r.Correct, r.Attempted, r.Failed, r.Error)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(want))
	}
	for _, d := range want {
		if v, ok := r.Metrics[d.name]; !ok {
			t.Errorf("metric %s was not emitted", d.name)
		} else if v.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		}
	}
}

// checkSpanFile checks that every span in the file is a root or names a
// parent that is in the file too, within its own trace.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Trace, ID, Parent uint64
		Layer, Name       string
		Start             int64 `json:"start_ns"`
		End               int64 `json:"end_ns"`
	}
	var spans []line
	traceOf := map[uint64]uint64{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if l.End < l.Start || l.Layer == "" || l.Name == "" {
			t.Errorf("malformed span %+v", l)
		}
		spans = append(spans, l)
		traceOf[l.ID] = l.Trace
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for _, l := range spans {
		if l.Parent == 0 {
			continue
		}
		if tr, ok := traceOf[l.Parent]; !ok || tr != l.Trace {
			t.Errorf("span %d (%s) has no parent %d in trace %d", l.ID, l.Name, l.Parent, l.Trace)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Parent: 0, Layer: layerOther, Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Layer: layerRPC, Start: 10, End: 50},
		{Trace: 1, ID: 3, Parent: 2, Layer: layerRPC, Start: 20, End: 40},
		{Trace: 1, ID: 4, Parent: 1, Layer: layerCodec, Start: 45, End: 70}, // overlaps span 2 by 5
	}
	self, total, err := selfTimeByLayer(spans)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 || self[layerOther] != 40 || self[layerRPC] != 40 || self[layerCodec] != 25 {
		t.Errorf("total %d, self %v", total, self)
	}
	if _, _, err := selfTimeByLayer([]span{{ID: 5, Parent: 9}}); err == nil {
		t.Error("an orphan span was accepted")
	}
}

// TestCompareVerdicts feeds -compare two results files and checks each
// verdict and the exit status.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"},{"name":"broken"}],"end_to_end":[
		{"name":"steady","unit":"ms","better":"lower","bound":0.1},
		{"name":"slower","unit":"ms","better":"lower","bound":0.1},
		{"name":"faster","unit":"1/s","better":"higher","bound":0.1},
		{"name":"noisy","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	// Each file holds the given runs of workload w, all correct, and one run
	// of workload broken with the first row's values and failed operations.
	write := func(name string, failed int64, rows ...map[string]float64) string {
		path := filepath.Join(dir, name)
		for i, row := range rows {
			m := metrics{}
			for k, v := range row {
				m[k] = metricValue{v, ""}
			}
			runs := []*result{{Workload: "w", Correct: true, Metrics: m}}
			if i == 0 {
				runs = append(runs, &result{Workload: "broken", Correct: failed == 0, Failed: failed, Metrics: m})
			}
			for _, r := range runs {
				if err := appendResult(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a := write("a.jsonl", 0,
		map[string]float64{"steady": 10, "slower": 10, "faster": 100, "noisy": 10},
		map[string]float64{"steady": 10.1, "slower": 10, "faster": 101, "noisy": 20},
		map[string]float64{"steady": 9.9, "slower": 10, "faster": 99, "noisy": 30})
	b := write("b.jsonl", 3,
		map[string]float64{"steady": 10.5, "slower": 12, "faster": 150, "noisy": 10},
		map[string]float64{"steady": 10.5, "slower": 12, "faster": 150, "noisy": 20},
		map[string]float64{"steady": 10.5, "slower": 12, "faster": 150, "noisy": 30})
	var out bytes.Buffer
	if status := compareFiles(&out, spec, []string{a, b}); status != 1 {
		t.Errorf("exit status %d, want 1 (regressed)\n%s", status, out.String())
	}
	for _, want := range []string{`w\s+steady\s.*\sok`, `w\s+slower\s.*\sregressed`, `w\s+faster\s.*\sok`, `w\s+noisy\s.*\sunresolved`,
		`w\s+failed operations\s.*\sok`, `broken\s+steady\s.*\sok`, `broken\s+failed operations\s.*\sregressed`} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("no row matches %q in\n%s", want, out.String())
		}
	}
	// Failed operations alone regress a comparison whose metrics all hold.
	out.Reset()
	c := write("c.jsonl", 0, map[string]float64{"steady": 10, "slower": 10, "faster": 100, "noisy": 20})
	d := write("d.jsonl", 1, map[string]float64{"steady": 10, "slower": 10, "faster": 100, "noisy": 20})
	if status := compareFiles(&out, spec, []string{c, d}); status != 1 {
		t.Errorf("exit status %d with a failed operation on one side, want 1\n%s", status, out.String())
	}
	if status := compareFiles(&out, spec, []string{c, c}); status != 0 {
		t.Errorf("exit status %d comparing a clean file with itself, want 0\n%s", status, out.String())
	}
	out.Reset()
	if status := compareFiles(&out, spec, []string{a, a}); status != 2 {
		t.Errorf("exit status %d comparing a file with itself, want 2 (noisy is unresolved)\n%s", status, out.String())
	}
}
