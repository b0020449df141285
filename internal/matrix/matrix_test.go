package matrix

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"carousel/internal/gf256"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	rng.Read(m.data)
	return m
}

// randomInvertible builds a random invertible n x n matrix by rejection.
func randomInvertible(rng *rand.Rand, n int) *Matrix {
	for {
		m := randomMatrix(rng, n, n)
		if _, err := m.Inverse(); err == nil {
			return m
		}
	}
}

func TestNewShape(t *testing.T) {
	m := New(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 {
		t.Fatalf("shape = %dx%d, want 3x5", m.Rows(), m.Cols())
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 5; c++ {
			if m.At(r, c) != 0 {
				t.Fatalf("new matrix not zero at (%d,%d)", r, c)
			}
		}
	}
}

func TestNewFromSlices(t *testing.T) {
	m, err := NewFromSlices([][]byte{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected contents: %v", m)
	}
	if _, err := NewFromSlices([][]byte{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows did not error")
	}
	empty, err := NewFromSlices(nil)
	if err != nil || empty.Rows() != 0 {
		t.Fatalf("empty input: %v, %v", empty, err)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	if !id.IsIdentity() {
		t.Fatal("Identity(4) is not the identity")
	}
	m := randomMatrix(rand.New(rand.NewSource(1)), 4, 4)
	if !id.Mul(m).Equal(m) || !m.Mul(id).Equal(m) {
		t.Fatal("identity is not a multiplicative identity")
	}
}

func TestRowIsLiveView(t *testing.T) {
	m := New(2, 2)
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row did not return a live view")
	}
}

func TestMulAgainstScalarDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 3, 4)
	b := randomMatrix(rng, 4, 5)
	got := a.Mul(b)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			var want byte
			for kk := 0; kk < 4; kk++ {
				want ^= gf256.Mul(a.At(i, kk), b.At(kk, j))
			}
			if got.At(i, j) != want {
				t.Fatalf("Mul mismatch at (%d,%d): got %d want %d", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Mul did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33} {
		m := randomInvertible(rng, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !m.Mul(inv).IsIdentity() {
			t.Fatalf("n=%d: m*inv != I", n)
		}
		if !inv.Mul(m).IsIdentity() {
			t.Fatalf("n=%d: inv*m != I", n)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m, err := NewFromSlices([][]byte{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 = 2 * row 0 in GF(256) (2*1=2, 2*2=4, 2*3=6).
	if _, err := m.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("inverse of singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Fatal("inverse of non-square matrix did not error")
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		rows [][]byte
		want int
	}{
		{[][]byte{{1, 0}, {0, 1}}, 2},
		{[][]byte{{1, 2}, {2, 4}}, 1},
		{[][]byte{{0, 0}, {0, 0}}, 0},
		{[][]byte{{1, 2, 3}, {0, 1, 1}}, 2},
		{[][]byte{{1}, {2}, {3}}, 1},
	}
	for i, tt := range tests {
		m, err := NewFromSlices(tt.rows)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Rank(); got != tt.want {
			t.Errorf("case %d: rank = %d, want %d", i, got, tt.want)
		}
	}
}

func TestRankOfInvertibleIsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomInvertible(rng, 7)
	if got := m.Rank(); got != 7 {
		t.Fatalf("rank of invertible = %d, want 7", got)
	}
}

func TestSelectRows(t *testing.T) {
	m, err := NewFromSlices([][]byte{{1, 1}, {2, 2}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.SelectRows([]int{2, 0, 2})
	want := [][]byte{{3, 3}, {1, 1}, {3, 3}}
	for i, w := range want {
		for j := range w {
			if s.At(i, j) != w[j] {
				t.Fatalf("SelectRows mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSubMatrix(t *testing.T) {
	m, err := NewFromSlices([][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.SubMatrix(1, 3, 0, 2)
	if s.Rows() != 2 || s.Cols() != 2 || s.At(0, 0) != 4 || s.At(1, 1) != 8 {
		t.Fatalf("SubMatrix mismatch: %v", s)
	}
}

func TestStacking(t *testing.T) {
	a, _ := NewFromSlices([][]byte{{1, 2}})
	b, _ := NewFromSlices([][]byte{{3, 4}})
	h := a.HStack(b)
	if h.Cols() != 4 || h.At(0, 2) != 3 {
		t.Fatalf("HStack mismatch: %v", h)
	}
}

func TestExpandIdentity(t *testing.T) {
	m, err := NewFromSlices([][]byte{{2, 3}, {0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	e := m.ExpandIdentity(3)
	if e.Rows() != 6 || e.Cols() != 6 {
		t.Fatalf("expanded shape %dx%d, want 6x6", e.Rows(), e.Cols())
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			for t1 := 0; t1 < 3; t1++ {
				for t2 := 0; t2 < 3; t2++ {
					want := byte(0)
					if t1 == t2 {
						want = m.At(r, c)
					}
					if got := e.At(r*3+t1, c*3+t2); got != want {
						t.Fatalf("expand mismatch at (%d,%d)", r*3+t1, c*3+t2)
					}
				}
			}
		}
	}
	if !m.ExpandIdentity(1).Equal(m) {
		t.Fatal("ExpandIdentity(1) should be a clone")
	}
}

// Expansion by identity must commute with multiplication:
// (A ⊗ I)(B ⊗ I) = (AB) ⊗ I.
func TestExpandIdentityCommutesWithMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 3, 4)
	b := randomMatrix(rng, 4, 2)
	left := a.ExpandIdentity(4).Mul(b.ExpandIdentity(4))
	right := a.Mul(b).ExpandIdentity(4)
	if !left.Equal(right) {
		t.Fatal("(A⊗I)(B⊗I) != (AB)⊗I")
	}
}

func TestNNZAndRowNNZ(t *testing.T) {
	m, err := NewFromSlices([][]byte{{0, 1, 0}, {2, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NNZ(); got != 3 {
		t.Fatalf("NNZ = %d, want 3", got)
	}
	if got := m.RowNNZ(0); got != 1 {
		t.Fatalf("RowNNZ(0) = %d, want 1", got)
	}
	if got := m.RowNNZ(1); got != 2 {
		t.Fatalf("RowNNZ(1) = %d, want 2", got)
	}
}

func TestUnitColumn(t *testing.T) {
	m, err := NewFromSlices([][]byte{
		{0, 1, 0}, // unit at column 1
		{0, 2, 0}, // scaled, not unit
		{1, 1, 0}, // two ones
		{0, 0, 0}, // zero row
	})
	if err != nil {
		t.Fatal(err)
	}
	if col, ok := m.UnitColumn(0); !ok || col != 1 {
		t.Fatalf("UnitColumn(0) = %d,%v want 1,true", col, ok)
	}
	for r := 1; r < 4; r++ {
		if _, ok := m.UnitColumn(r); ok {
			t.Fatalf("UnitColumn(%d) = true, want false", r)
		}
	}
}

func TestVandermonde(t *testing.T) {
	xs := []byte{1, 2, 3, 4, 5}
	v := Vandermonde(xs, 3)
	for r, x := range xs {
		want := byte(1)
		for c := 0; c < 3; c++ {
			if v.At(r, c) != want {
				t.Fatalf("Vandermonde(%d,%d) = %d, want %d", r, c, v.At(r, c), want)
			}
			want = gf256.Mul(want, x)
		}
	}
	// Any 3 rows must be independent for distinct xs.
	for _, idx := range [][]int{{0, 1, 2}, {0, 2, 4}, {1, 3, 4}} {
		if got := v.SelectRows(idx).Rank(); got != 3 {
			t.Fatalf("Vandermonde rows %v rank = %d, want 3", idx, got)
		}
	}
}

func TestSystematicCauchyIsMDS(t *testing.T) {
	for _, tt := range []struct{ n, k int }{{3, 2}, {5, 3}, {6, 4}, {9, 6}, {12, 6}, {14, 10}} {
		m, err := SystematicCauchy(tt.n, tt.k)
		if err != nil {
			t.Fatalf("(%d,%d): %v", tt.n, tt.k, err)
		}
		if !m.SubMatrix(0, tt.k, 0, tt.k).IsIdentity() {
			t.Fatalf("(%d,%d): top rows are not identity", tt.n, tt.k)
		}
		// Exhaustively check all k-subsets for small shapes, random for larger.
		checkAllKSubsetsInvertible(t, m, tt.k)
	}
}

func checkAllKSubsetsInvertible(t *testing.T, m *Matrix, k int) {
	t.Helper()
	n := m.Rows()
	idx := make([]int, k)
	var rec func(start, depth int)
	count := 0
	rec = func(start, depth int) {
		if depth == k {
			count++
			if _, err := m.SelectRows(idx).Inverse(); err != nil {
				t.Fatalf("rows %v are singular", idx)
			}
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	if binom(n, k) <= 3000 {
		rec(0, 0)
		return
	}
	// Too many subsets: sample.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		perm := rng.Perm(n)[:k]
		if _, err := m.SelectRows(perm).Inverse(); err != nil {
			t.Fatalf("rows %v are singular", perm)
		}
	}
}

func binom(n, k int) int {
	if k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestSystematicCauchyErrors(t *testing.T) {
	for _, tt := range []struct{ n, k int }{{2, 2}, {2, 3}, {0, 0}, {300, 250}} {
		if _, err := SystematicCauchy(tt.n, tt.k); err == nil {
			t.Errorf("SystematicCauchy(%d,%d) did not error", tt.n, tt.k)
		}
	}
}

func TestApplyToUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomMatrix(rng, 5, 3)
	// Ensure sparse paths are exercised: one zero row, one unit row.
	clear(m.Row(0))
	clear(m.Row(1))
	m.Set(1, 2, 1)
	const unit = 64
	in := make([][]byte, 3)
	for i := range in {
		in[i] = make([]byte, unit)
		rng.Read(in[i])
	}
	out := make([][]byte, 5)
	for i := range out {
		out[i] = make([]byte, unit)
		rng.Read(out[i]) // must be overwritten
	}
	m.ApplyToUnits(in, out)
	for r := 0; r < 5; r++ {
		for b := 0; b < unit; b++ {
			var want byte
			for c := 0; c < 3; c++ {
				want ^= gf256.Mul(m.At(r, c), in[c][b])
			}
			if out[r][b] != want {
				t.Fatalf("ApplyToUnits mismatch at row %d byte %d", r, b)
			}
		}
	}
}

func TestApplyRowToUnits(t *testing.T) {
	in := [][]byte{{1, 2}, {3, 4}}
	out := make([]byte, 2)
	ApplyRowToUnits([]byte{1, 1}, in, out)
	if out[0] != 1^3 || out[1] != 2^4 {
		t.Fatalf("ApplyRowToUnits = %v", out)
	}
	ApplyRowToUnits([]byte{0, 0}, in, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("zero row should clear output: %v", out)
	}
}

// Property: (A*B)^-1 == B^-1 * A^-1 for random invertible matrices.
func TestInverseOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		a := randomInvertible(r, 4)
		b := randomInvertible(r, 4)
		ab := a.Mul(b)
		abInv, err := ab.Inverse()
		if err != nil {
			return false
		}
		aInv, _ := a.Inverse()
		bInv, _ := b.Inverse()
		return abInv.Equal(bInv.Mul(aInv))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInverse32(b *testing.B) {
	m := randomInvertible(rand.New(rand.NewSource(8)), 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyToUnits(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := randomMatrix(rng, 12, 6)
	in := make([][]byte, 6)
	out := make([][]byte, 12)
	for i := range in {
		in[i] = make([]byte, 64*1024)
		rng.Read(in[i])
	}
	for i := range out {
		out[i] = make([]byte, 64*1024)
	}
	b.SetBytes(int64(6 * 64 * 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyToUnits(in, out)
	}
}
