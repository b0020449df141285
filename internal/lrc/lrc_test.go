package lrc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCode(t *testing.T, k, l, g int) *Code {
	t.Helper()
	c, err := New(k, l, g)
	if err != nil {
		t.Fatalf("New(%d, %d, %d): %v", k, l, g, err)
	}
	return c
}

func randomData(rng *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

func TestNewValidation(t *testing.T) {
	for _, tt := range []struct{ k, l, g int }{
		{0, 1, 1}, {6, 4, 2}, {6, 2, 0}, {-1, 1, 1}, {250, 5, 10},
	} {
		if _, err := New(tt.k, tt.l, tt.g); err == nil {
			t.Errorf("New(%d, %d, %d) did not error", tt.k, tt.l, tt.g)
		}
	}
}

func TestLayoutAndAccessors(t *testing.T) {
	c := mustCode(t, 6, 2, 2)
	if c.N() != 10 || c.K() != 6 || c.L() != 2 || c.G() != 2 || c.GroupSize() != 3 {
		t.Fatalf("accessors: n=%d k=%d l=%d g=%d gs=%d", c.N(), c.K(), c.L(), c.G(), c.GroupSize())
	}
	wantGroups := []int{0, 0, 0, 1, 1, 1, 0, 1, -1, -1}
	for i, want := range wantGroups {
		if got := c.Group(i); got != want {
			t.Errorf("Group(%d) = %d, want %d", i, got, want)
		}
	}
	if c.Group(-1) != -1 || c.Group(10) != -1 {
		t.Error("out-of-range Group should be -1")
	}
	if so := c.StorageOverhead(); so != 10.0/6.0 {
		t.Errorf("StorageOverhead = %g", so)
	}
}

func TestEncodeSystematicAndLocalParity(t *testing.T) {
	c := mustCode(t, 6, 2, 2)
	rng := rand.New(rand.NewSource(1))
	data := randomData(rng, 6, 64)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if !bytes.Equal(blocks[i], data[i]) {
			t.Fatalf("data block %d not systematic", i)
		}
	}
	// Local parity = XOR of its group.
	for j := 0; j < 2; j++ {
		want := make([]byte, 64)
		for m := 0; m < 3; m++ {
			for b := range want {
				want[b] ^= data[j*3+m][b]
			}
		}
		if !bytes.Equal(blocks[6+j], want) {
			t.Fatalf("local parity %d is not the group XOR", j)
		}
	}
}

func TestDecodeAllSingleAndDoubleFailures(t *testing.T) {
	c := mustCode(t, 6, 2, 2)
	rng := rand.New(rand.NewSource(2))
	data := randomData(rng, 6, 32)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	check := func(drop []int) {
		avail := make([][]byte, 10)
		copy(avail, blocks)
		for _, i := range drop {
			avail[i] = nil
		}
		got, err := c.Decode(avail)
		if err != nil {
			t.Fatalf("drop %v: %v", drop, err)
		}
		for i := range data {
			if !bytes.Equal(got[i], data[i]) {
				t.Fatalf("drop %v: block %d mismatch", drop, i)
			}
		}
	}
	for i := 0; i < 10; i++ {
		check([]int{i})
		for j := i + 1; j < 10; j++ {
			check([]int{i, j})
		}
	}
}

func TestTripleFailureCoverage(t *testing.T) {
	// LRC(6,2,2) has n-k = 4 but is not MDS: count decodable 3-failure
	// patterns and confirm the known structure (three data losses in one
	// group leave rank short only when paired with that group's parity...
	// here we just assert IsDecodable agrees with an actual decode).
	c := mustCode(t, 6, 2, 2)
	rng := rand.New(rand.NewSource(3))
	data := randomData(rng, 6, 16)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	triple, tripleTotal := 0, 0
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			for m := j + 1; m < 10; m++ {
				tripleTotal++
				if checkPattern(t, c, blocks, data, []int{i, j, m}) {
					triple++
				}
			}
		}
	}
	// With the maximally recoverable construction every 3-failure pattern
	// decodes; the non-MDS gaps show at 4 failures (e.g. a whole group
	// plus its local parity).
	if triple != tripleTotal {
		t.Fatalf("triple-failure coverage %d/%d, want all decodable", triple, tripleTotal)
	}
	quad, quadTotal := 0, 0
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			for m := j + 1; m < 10; m++ {
				for q := m + 1; q < 10; q++ {
					quadTotal++
					if checkPattern(t, c, blocks, data, []int{i, j, m, q}) {
						quad++
					}
				}
			}
		}
	}
	if quad == 0 || quad == quadTotal {
		t.Fatalf("quad-failure coverage %d/%d looks degenerate (not MDS, not useless)", quad, quadTotal)
	}
	// Losing group 0 entirely (data 0,1,2 + local parity 6) leaves only
	// two global equations for three unknowns: must be undecodable.
	avail := make([]bool, 10)
	for x := range avail {
		avail[x] = true
	}
	avail[0], avail[1], avail[2], avail[6] = false, false, false, false
	if c.IsDecodable(avail) {
		t.Fatal("losing a full group plus its parity should be undecodable")
	}
	t.Logf("LRC(6,2,2): %d/%d triples, %d/%d quads decodable", triple, tripleTotal, quad, quadTotal)
}

// checkPattern verifies IsDecodable agrees with Decode for a drop set and
// returns whether the pattern decodes.
func checkPattern(t *testing.T, c *Code, blocks, data [][]byte, drop []int) bool {
	t.Helper()
	avail := make([]bool, c.N())
	for x := range avail {
		avail[x] = true
	}
	work := make([][]byte, c.N())
	copy(work, blocks)
	for _, d := range drop {
		avail[d] = false
		work[d] = nil
	}
	pred := c.IsDecodable(avail)
	got, err := c.Decode(work)
	if pred != (err == nil) {
		t.Fatalf("IsDecodable(%v)=%v but Decode err=%v", drop, pred, err)
	}
	if err != nil {
		if !errors.Is(err, ErrUndecodable) {
			t.Fatalf("unexpected error class: %v", err)
		}
		return false
	}
	for x := range data {
		if !bytes.Equal(got[x], data[x]) {
			t.Fatalf("drop %v: data mismatch", drop)
		}
	}
	return true
}

func TestRepairLocalData(t *testing.T) {
	c := mustCode(t, 6, 2, 2)
	rng := rand.New(rand.NewSource(4))
	data := randomData(rng, 6, 48)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for failed := 0; failed < c.N(); failed++ {
		work := make([][]byte, 10)
		copy(work, blocks)
		work[failed] = nil
		got, err := c.Repair(failed, work)
		if err != nil {
			t.Fatalf("repair %d: %v", failed, err)
		}
		if !bytes.Equal(got, blocks[failed]) {
			t.Fatalf("repair %d: mismatch", failed)
		}
		avail := make([]bool, 10)
		for i := range avail {
			avail[i] = work[i] != nil
		}
		plan, err := c.PlanRepair(failed, avail)
		if err != nil {
			t.Fatal(err)
		}
		if c.Group(failed) >= 0 {
			if !plan.Local || len(plan.Sources) != c.GroupSize() {
				t.Fatalf("repair %d: plan %+v, want local with %d sources", failed, plan, c.GroupSize())
			}
		} else if plan.Local {
			t.Fatalf("global parity %d repaired locally", failed)
		}
	}
}

func TestRepairFallsBackToGlobal(t *testing.T) {
	c := mustCode(t, 6, 2, 2)
	rng := rand.New(rand.NewSource(5))
	data := randomData(rng, 6, 16)
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Lose block 0 and its local parity: group repair impossible.
	work := make([][]byte, 10)
	copy(work, blocks)
	work[0] = nil
	work[6] = nil
	got, err := c.Repair(0, work)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blocks[0]) {
		t.Fatal("global-path repair mismatch")
	}
	avail := make([]bool, 10)
	for i := range avail {
		avail[i] = work[i] != nil
	}
	plan, err := c.PlanRepair(0, avail)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Local {
		t.Fatal("plan should not be local with the group parity lost")
	}
}

func TestReconstructionTraffic(t *testing.T) {
	c := mustCode(t, 6, 2, 2)
	if got := c.ReconstructionTraffic(0, 100); got != 300 {
		t.Fatalf("data block traffic = %d, want 300 (group size 3)", got)
	}
	if got := c.ReconstructionTraffic(6, 100); got != 300 {
		t.Fatalf("local parity traffic = %d, want 300", got)
	}
	if got := c.ReconstructionTraffic(8, 100); got != 600 {
		t.Fatalf("global parity traffic = %d, want 600 (k blocks)", got)
	}
}

// Property: any failure pattern that IsDecodable accepts really decodes to
// the original data, for a couple of shapes.
func TestDecodableProperty(t *testing.T) {
	for _, shape := range []struct{ k, l, g int }{{6, 2, 2}, {12, 2, 2}, {4, 2, 3}} {
		c := mustCode(t, shape.k, shape.l, shape.g)
		rng := rand.New(rand.NewSource(6))
		data := randomData(rng, shape.k, 8)
		blocks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			avail := make([]bool, c.N())
			work := make([][]byte, c.N())
			for i := range avail {
				avail[i] = r.Intn(3) > 0
				if avail[i] {
					work[i] = blocks[i]
				}
			}
			got, err := c.Decode(work)
			if c.IsDecodable(avail) != (err == nil) {
				return false
			}
			if err != nil {
				return true
			}
			for i := range data {
				if !bytes.Equal(got[i], data[i]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("shape %+v: %v", shape, err)
		}
	}
}
