package main

import (
	"strings"
	"testing"
)

// TestSelectFigures: every -fig value resolves through the one table, and
// a value that is not in it — a retired figure, a typo, nothing — is an
// error that names the valid ones, never an empty selection that would
// exit 0 having run nothing. No figure runs here.
func TestSelectFigures(t *testing.T) {
	const valid = "all 9 10 11 deg tail swarm"
	for _, tc := range []struct {
		fig     string
		json    bool
		want    string // space-joined names selected; "" = refused
		errHas  string
		comment string
	}{
		{fig: "all", want: "9 10 11 deg tail", comment: "all = the simulated ones"},
		{fig: "9", want: "9"},
		{fig: "10", want: "10"},
		{fig: "11", want: "11"},
		{fig: "deg", want: "deg"},
		{fig: "tail", want: "tail"},
		{fig: "swarm", want: "swarm"},
		{fig: "swarm", json: true, want: "swarm"},
		{fig: "net", errHas: valid, comment: "retired"},
		{fig: "recovery", errHas: valid, comment: "retired"},
		{fig: "bogus", errHas: valid},
		{fig: "", errHas: valid},
		{fig: "net", json: true, errHas: valid},
		{fig: "9", json: true, errHas: "-json", comment: "simulated figures write no JSON"},
		{fig: "all", json: true, errHas: "-json"},
	} {
		sel, err := selectFigures(tc.fig, tc.json)
		var names []string
		for _, f := range sel {
			names = append(names, f.name)
			if f.run == nil {
				t.Errorf("-fig %q: figure %q has no run function", tc.fig, f.name)
			}
		}
		got := strings.Join(names, " ")
		switch {
		case tc.want != "" && (err != nil || got != tc.want):
			t.Errorf("-fig %q -json=%v: selected %q, err %v; want %q (%s)", tc.fig, tc.json, got, err, tc.want, tc.comment)
		case tc.want == "" && (err == nil || len(sel) != 0 || !strings.Contains(err.Error(), tc.errHas)):
			t.Errorf("-fig %q -json=%v: selected %q, err %v; want an error containing %q (%s)", tc.fig, tc.json, got, err, tc.errHas, tc.comment)
		}
	}
}

// TestQuantile pins the nearest-rank rule the swarm's p50/p99/p999 use:
// the answer is always one of the samples.
func TestQuantile(t *testing.T) {
	thousand := make([]int64, 1000)
	for i := range thousand {
		thousand[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		name   string
		sorted []int64
		q      float64
		want   int64
	}{
		{"empty", nil, 0.5, 0},
		{"one sample p50", []int64{7}, 0.5, 7},
		{"one sample p999", []int64{7}, 0.999, 7},
		{"one sample q=0", []int64{7}, 0, 7},
		{"ties", []int64{3, 3, 3, 9}, 0.75, 3},
		{"ties, past them", []int64{3, 3, 3, 9}, 0.76, 9},
		{"two samples p50 is the lower", []int64{1, 2}, 0.5, 1},
		{"p50 of 1000", thousand, 0.5, 500},
		{"p99 of 1000", thousand, 0.99, 990},
		{"p999 of 1000", thousand, 0.999, 999},
		{"q=1 is the max", thousand, 1, 1000},
	} {
		if got := quantile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: quantile(q=%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
}
