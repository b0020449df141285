package matrix

import (
	"bytes"
	"math/rand"
	"testing"

	"carousel/internal/gf256"
)

func TestApplyToUnitsDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := randomMatrix(rng, 9, 6)
	clear(m.Row(2)) // include a zero row
	m.Set(3, 1, 1)  // and a near-unit row
	const unit = 333
	in := make([][]byte, 6)
	for i := range in {
		in[i] = make([]byte, unit)
		rng.Read(in[i])
	}
	a := make([][]byte, 9)
	b := make([][]byte, 9)
	for i := range a {
		a[i] = make([]byte, unit)
		b[i] = make([]byte, unit)
	}
	m.ApplyToUnits(in, a)
	m.ApplyToUnitsDense(in, b)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("dense apply differs at row %d", i)
		}
	}
}

func BenchmarkApplyToUnitsSparseVsDense(b *testing.B) {
	// Ablation for the paper's sparsity optimization: the remapped
	// Carousel generator has mostly-zero rows, so the sparse path should
	// approach the base-code encode cost while the dense path pays for the
	// expansion.
	rng := rand.New(rand.NewSource(33))
	m := New(60, 30)
	// Sparse structure: 30 unit rows and 30 parity rows with 6 nonzeros.
	for r := 0; r < 30; r++ {
		m.Set(r, r, 1)
	}
	for r := 30; r < 60; r++ {
		for j := 0; j < 6; j++ {
			m.Set(r, (r*7+j*5)%30, byte(rng.Intn(255)+1))
		}
	}
	const unit = 64 * 1024
	in := make([][]byte, 30)
	out := make([][]byte, 60)
	for i := range in {
		in[i] = make([]byte, unit)
		rng.Read(in[i])
	}
	for i := range out {
		out[i] = make([]byte, unit)
	}
	b.Run("sparse", func(b *testing.B) {
		b.SetBytes(int64(30 * unit))
		for i := 0; i < b.N; i++ {
			m.ApplyToUnits(in, out)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.SetBytes(int64(30 * unit))
		for i := 0; i < b.N; i++ {
			m.ApplyToUnitsDense(in, out)
		}
	})
}

func TestRankTracker(t *testing.T) {
	tr := NewRankTracker(3)
	if !tr.Add([]byte{1, 2, 3}) {
		t.Fatal("first row should be independent")
	}
	if !tr.Add([]byte{0, 1, 1}) {
		t.Fatal("second row should be independent")
	}
	if tr.Add([]byte{2, 4, 6}) { // 2*row0 in GF(256)
		t.Fatal("scaled row should be dependent")
	}
	if tr.Add([]byte{0, 0, 0}) {
		t.Fatal("zero row should be dependent")
	}
	if !tr.Add([]byte{0, 0, 5}) {
		t.Fatal("third pivot should be independent")
	}
	if tr.Rank() != 3 {
		t.Fatalf("rank = %d, want 3", tr.Rank())
	}
	if tr.Add([]byte{9, 9, 9}) {
		t.Fatal("rank already full")
	}
}

func TestRankTrackerAgreesWithRank(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 20; trial++ {
		m := randomMatrix(rng, 6, 4)
		if rng.Intn(2) == 0 {
			copy(m.Row(3), m.Row(1)) // force dependence sometimes
		}
		tr := NewRankTracker(4)
		for r := 0; r < 6; r++ {
			tr.Add(m.Row(r))
		}
		if tr.Rank() != m.Rank() {
			t.Fatalf("tracker rank %d != matrix rank %d", tr.Rank(), m.Rank())
		}
	}
}

func TestRankTrackerShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row length did not panic")
		}
	}()
	NewRankTracker(3).Add([]byte{1, 2})
}

// Sanity: gf256.MulRow used by the dense path matches Mul.
func TestDenseKernelRow(t *testing.T) {
	row := gf256.MulRow(7)
	if row[3] != gf256.Mul(7, 3) {
		t.Fatal("MulRow mismatch")
	}
}
