package codeplan

import (
	"bytes"
	"math/rand"
	"testing"

	"carousel/internal/matrix"
)

// randomMatrix builds a rows x cols matrix seeded with the structures the
// compiler special-cases: unit rows, zero rows, all-zero columns, and
// general rows with a controlled density of nonzeros.
func randomMatrix(rng *rand.Rand, rows, cols int) *matrix.Matrix {
	m := matrix.New(rows, cols)
	zeroCol := -1
	if cols > 1 && rng.Intn(2) == 0 {
		zeroCol = rng.Intn(cols)
	}
	for r := 0; r < rows; r++ {
		switch rng.Intn(5) {
		case 0: // unit row
			c := rng.Intn(cols)
			if c == zeroCol {
				c = (c + 1) % cols
			}
			m.Set(r, c, 1)
		case 1: // zero row
		default: // general row
			for c := 0; c < cols; c++ {
				if c == zeroCol {
					continue
				}
				if rng.Intn(3) != 0 {
					m.Set(r, c, byte(rng.Intn(256)))
				}
			}
		}
	}
	return m
}

func randomUnits(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// TestPlanMatchesApplyToUnits is the golden differential test: plan
// execution must be byte-identical to matrix.ApplyToUnits and
// ApplyToUnitsDense across random matrices (unit rows, zero rows, all-zero
// columns) and odd buffer sizes spanning chunk boundaries.
func TestPlanMatchesApplyToUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 63, 64, 65, 4095, chunkBytes - 1, chunkBytes, chunkBytes + 65}
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		m := randomMatrix(rng, rows, cols)
		plan := Compile(m)
		size := sizes[trial%len(sizes)]
		in := randomUnits(rng, cols, size)
		want := randomUnits(rng, rows, size)
		m.ApplyToUnits(in, want)

		dense := randomUnits(rng, rows, size)
		m.ApplyToUnitsDense(in, dense)
		for r := range want {
			if !bytes.Equal(want[r], dense[r]) {
				t.Fatalf("trial %d: ApplyToUnits and ApplyToUnitsDense disagree on row %d", trial, r)
			}
		}

		got := randomUnits(rng, rows, size)
		plan.Run(in, got)
		for r := range want {
			if !bytes.Equal(want[r], got[r]) {
				t.Fatalf("trial %d (%dx%d, size %d): Run row %d differs from ApplyToUnits",
					trial, rows, cols, size, r)
			}
		}

		for _, workers := range []int{2, 3, 8} {
			gotP := randomUnits(rng, rows, size)
			plan.RunParallel(in, gotP, workers)
			for r := range want {
				if !bytes.Equal(want[r], gotP[r]) {
					t.Fatalf("trial %d (%dx%d, size %d, workers %d): RunParallel row %d differs",
						trial, rows, cols, size, workers, r)
				}
			}
		}
	}
}

// TestPlanLargeParallel crosses the minParallelBytes threshold so the
// striped path really runs, including a size that is not stripe-aligned.
func TestPlanLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(rng, 9, 7)
	plan := Compile(m)
	for _, size := range []int{minParallelBytes, minParallelBytes + 4097} {
		in := randomUnits(rng, 7, size)
		want := randomUnits(rng, 9, size)
		m.ApplyToUnits(in, want)
		got := randomUnits(rng, 9, size)
		plan.RunParallel(in, got, 4)
		for r := range want {
			if !bytes.Equal(want[r], got[r]) {
				t.Fatalf("size %d: row %d differs", size, r)
			}
		}
	}
}

// TestCompileOpKinds pins the row classification: unit rows become COPY,
// zero rows CLEAR, general rows one MUL followed by MULADDs, with the
// general schedule ordered by source column.
func TestCompileOpKinds(t *testing.T) {
	m := matrix.New(4, 3)
	m.Set(0, 1, 1) // unit row -> COPY
	m.Set(2, 0, 5) // single general coefficient -> MUL
	m.Set(3, 0, 2)
	m.Set(3, 2, 7)     // two coefficients -> MUL + MULADD
	plan := Compile(m) // row 1 is all-zero -> CLEAR
	counts := plan.Counts()
	if counts.Copy != 1 || counts.Clear != 1 || counts.Mul != 2 || counts.MulAdd != 1 {
		t.Fatalf("counts = %+v, want {Copy:1 Clear:1 Mul:2 MulAdd:1}", counts)
	}
	kinds := plan.DstKinds()
	want := []OpKind{OpCopy, OpClear, OpMul, OpMul}
	for r, k := range want {
		if kinds[r] != k {
			t.Fatalf("row %d produced by %v, want %v", r, kinds[r], k)
		}
	}
	lastSrc := int32(-1)
	for _, op := range plan.Ops() {
		if op.Kind != OpMul && op.Kind != OpMulAdd {
			continue
		}
		if op.Src < lastSrc {
			t.Fatalf("general schedule not in source-column order: %v", plan.Ops())
		}
		lastSrc = op.Src
	}
}

// TestEveryOutputOpensWithAnOverwrite pins what makes dirty (pooled)
// destinations safe: every output index is scheduled at least once, and the
// first op scheduled on it is a COPY, CLEAR or MULSLICE — an overwrite —
// never an accumulating MULADDSLICE.
func TestEveryOutputOpensWithAnOverwrite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(16), 1+rng.Intn(16)
		plan := Compile(randomMatrix(rng, rows, cols))
		scheduled := make([]bool, rows)
		for _, op := range plan.Ops() {
			scheduled[op.Dst] = true
		}
		for r, kind := range plan.DstKinds() {
			if !scheduled[r] {
				t.Fatalf("trial %d (%dx%d): output %d is never written", trial, rows, cols, r)
			}
			if kind == OpMulAdd {
				t.Fatalf("trial %d (%dx%d): output %d opens with %v", trial, rows, cols, r, kind)
			}
		}
	}
}

// TestIdentityPlanIsAllCopies asserts the identity-elision guarantee at
// the plan level: compiling an identity matrix yields only COPY ops and
// zero GF multiplications.
func TestIdentityPlanIsAllCopies(t *testing.T) {
	plan := Compile(matrix.Identity(16))
	c := plan.Counts()
	if c.Mul != 0 || c.MulAdd != 0 || c.Clear != 0 || c.Copy != 16 {
		t.Fatalf("identity plan counts = %+v, want 16 copies only", c)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	plan := Compile(matrix.Identity(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	plan.Run(make([][]byte, 3), make([][]byte, 2))
}

func BenchmarkPlanRun(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 16, 16)
	plan := Compile(m)
	size := 1 << 20
	in := randomUnits(rng, 16, size)
	out := randomUnits(rng, 16, size)
	b.SetBytes(int64(16 * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Run(in, out)
	}
}

func BenchmarkApplyToUnits(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 16, 16)
	size := 1 << 20
	in := randomUnits(rng, 16, size)
	out := randomUnits(rng, 16, size)
	b.SetBytes(int64(16 * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyToUnits(in, out)
	}
}
