//go:build !race

// The race detector instruments allocations and changes what escapes, so
// allocation pins run without it; the regular suite runs them.

package carousel

import (
	"math/rand"
	"testing"
)

// TestRepairAllocatesNothing pins a node recovery's codec calls at the
// benchmark's (12,6,10,10) and block size: a helper's HelperChunkInto and
// the newcomer's RepairBlockInto keep their unit views in arrays on their
// own stacks, and the repair vectors are the code's, so neither allocates.
// Each made its views afresh, and a helper cloned its vector, on every
// call.
func TestRepairAllocatesNothing(t *testing.T) {
	c, err := New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	const blockSize = 43680
	data := make([][]byte, c.K())
	rng := rand.New(rand.NewSource(15))
	for i := range data {
		data[i] = make([]byte, blockSize)
		rng.Read(data[i])
	}
	blocks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	const failed = 3
	var helpers []int
	for h := range c.N() {
		if h != failed && len(helpers) < c.D() {
			helpers = append(helpers, h)
		}
	}
	chunks := make([][]byte, len(helpers))
	for i := range chunks {
		chunks[i] = make([]byte, c.HelperChunkSize(blockSize))
	}
	if a := testing.AllocsPerRun(20, func() {
		for i, h := range helpers {
			if err := c.HelperChunkInto(h, failed, blocks[h], chunks[i]); err != nil {
				t.Fatal(err)
			}
		}
	}); a != 0 {
		t.Errorf("d HelperChunkInto calls allocate %v objects, want 0", a)
	}
	block := make([]byte, blockSize)
	if a := testing.AllocsPerRun(20, func() {
		if err := c.RepairBlockInto(failed, helpers, chunks, block); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("RepairBlockInto allocates %v objects, want 0", a)
	}
	if string(block) != string(blocks[failed]) {
		t.Error("the repaired block differs from the one encoded")
	}
}
