package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewFamilyShapes(t *testing.T) {
	for _, k := range []int{2, 4, 6} {
		f, err := NewFamily(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		n := 2 * k
		want := []struct {
			name string
			d, p int
		}{
			{"RS", k, k},
			{"Carousel(d=k)", k, n},
			{"MSR(d=2k-1)", n - 1, k},
			{"Carousel(d=2k-1)", n - 1, n},
		}
		if len(f) != len(want) {
			t.Fatalf("k=%d: %d series, want %d", k, len(f), len(want))
		}
		for i, w := range want {
			c := f[i].Code
			if f[i].Name != w.name || c.N() != n || c.K() != k || c.D() != w.d || c.P() != w.p {
				t.Errorf("k=%d: series %d is %q (%d,%d,%d,%d), want %q (%d,%d,%d,%d)",
					k, i, f[i].Name, c.N(), c.K(), c.D(), c.P(), w.name, n, k, w.d, w.p)
			}
		}
		// The baselines store one unit (RS) or alpha units (MSR) per
		// block: nothing of the expansion is left at p = k.
		if u := f[0].Code.UnitsPerBlock(); u != 1 {
			t.Errorf("k=%d: the RS point has %d units per block, want 1", k, u)
		}
		if u, alpha := f[2].Code.UnitsPerBlock(), f[2].Code.Alpha(); u != alpha {
			t.Errorf("k=%d: the MSR point has %d units per block, want alpha = %d", k, u, alpha)
		}
	}
}

func TestAlignBlockSize(t *testing.T) {
	f, err := NewFamily(6)
	if err != nil {
		t.Fatal(err)
	}
	size := f.AlignBlockSize(1 << 20)
	if size < 1<<20 {
		t.Fatalf("aligned size %d below request", size)
	}
	for _, s := range f {
		if align := s.Code.BlockAlign(); size%align != 0 {
			t.Fatalf("size %d not aligned to %s's %d", size, s.Name, align)
		}
	}
}

func TestRandomShardsDeterministic(t *testing.T) {
	a := RandomShards(3, 100, 7)
	b := RandomShards(3, 100, 7)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("shards not deterministic")
		}
	}
	c := RandomShards(3, 100, 8)
	if bytes.Equal(a[0], c[0]) {
		t.Fatal("different seeds produced identical shards")
	}
}

func TestMeasurePositive(t *testing.T) {
	x := 0
	mbs := Measure(2, 1000, func() { x++ })
	if mbs <= 0 {
		t.Fatalf("Measure = %g, want positive", mbs)
	}
	if x != 3 { // warmup + 2 reps
		t.Fatalf("fn called %d times, want 3", x)
	}
	secs := MeasureSeconds(2, func() {})
	if secs < 0 {
		t.Fatalf("MeasureSeconds = %g", secs)
	}
}

func TestTableOutput(t *testing.T) {
	var sb strings.Builder
	tab := NewTable(&sb, "k", "value")
	tab.Row(2, 3.14159)
	tab.Row("x", "y")
	tab.Flush()
	out := sb.String()
	for _, want := range []string{"k", "value", "3.14", "x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	var sb2 strings.Builder
	Section(&sb2, "Fig. X")
	if !strings.Contains(sb2.String(), "=== Fig. X ===") {
		t.Fatalf("section output: %q", sb2.String())
	}
}
