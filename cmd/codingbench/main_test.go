package main

import (
	"strings"
	"testing"
)

// TestSelectFigures: every -fig value resolves through the one table, and
// a value that is not in it is an error that names the valid ones, never
// an empty selection that would exit 0 having run nothing. No figure runs
// here.
func TestSelectFigures(t *testing.T) {
	const valid = "all 5 6a 6b 7 8a 8b ext lrc par tol"
	all := strings.Fields(valid)[1:]
	for _, fig := range strings.Fields(valid) {
		want := []string{fig}
		if fig == "all" {
			want = all
		}
		sel, err := selectFigures(fig)
		if err != nil {
			t.Errorf("-fig %q refused: %v", fig, err)
			continue
		}
		var got []string
		for _, f := range sel {
			got = append(got, f.name)
			if f.run == nil {
				t.Errorf("-fig %q: figure %q has no run function", fig, f.name)
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("-fig %q selected %v, want %v", fig, got, want)
		}
	}
	for _, fig := range []string{"bogus", "", "6", "net", "ALL"} {
		sel, err := selectFigures(fig)
		if err == nil || len(sel) != 0 || !strings.Contains(err.Error(), valid) {
			t.Errorf("-fig %q: selected %d figures, err %v; want an error listing %q", fig, len(sel), err, valid)
		}
	}
}
