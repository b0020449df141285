package lincode_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"carousel/internal/carousel"
	"carousel/internal/codeplan"
	"carousel/internal/lincode"
	"carousel/internal/lrc"
	"carousel/internal/matrix"
	"carousel/internal/msr"
	"carousel/internal/reedsolomon"
)

// codec is what every code built on the engine offers; the conformance
// table checks once what used to be checked per package.
type codec interface {
	N() int
	K() int
	GeneratorMatrix() *matrix.Matrix
	Encode(data [][]byte) ([][]byte, error)
	EncodeInto(data, blocks [][]byte) error
	Decode(blocks [][]byte) ([][]byte, error)
	Plan(sources, targets []int) (*codeplan.Plan, error)
}

// conformant is one row of the table.
type conformant struct {
	name string
	codec
	// decodable reports whether an availability pattern decodes. MDS codes
	// leave it nil: any k blocks do.
	decodable func(available []bool) bool
	// undecodable is the sentinel Decode returns for a pattern that does
	// not decode.
	undecodable error
	// repairs lists the code's repair entry points called with a failed
	// block index of n, each handed a dirty destination to leave alone.
	repairs func(blocks [][]byte, dirty []byte) map[string]error
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func conformants() []conformant {
	var rows []conformant
	// Beside the paper's points, small ones (n <= 9) of every code, where
	// decoding every loss pattern is cheap.
	for _, p := range [][2]int{{9, 6}, {6, 4}} {
		rows = append(rows, conformant{name: fmt.Sprintf("RS(%d,%d)", p[0], p[1]), codec: must(reedsolomon.New(p[0], p[1])), undecodable: lincode.ErrTooFewBlocks})
	}
	for _, p := range [][3]int{{12, 6, 10}, {4, 2, 2}, {4, 2, 3}, {6, 3, 4}, {6, 3, 5}, {8, 4, 7}} {
		ms := must(msr.New(p[0], p[1], p[2]))
		rows = append(rows, conformant{
			name: fmt.Sprintf("MSR(%d,%d,%d)", p[0], p[1], p[2]), codec: ms, undecodable: lincode.ErrTooFewBlocks,
			repairs: func(blocks [][]byte, _ []byte) map[string]error {
				_, vec := ms.RepairHelperVector(ms.N())
				_, chunk := ms.HelperChunk(0, ms.N(), blocks[0])
				_, plan := ms.RepairCombinerPlan(ms.N(), firstHelpers(ms.N(), ms.D(), ms.N()))
				return map[string]error{"RepairHelperVector": vec, "HelperChunk": chunk, "RepairCombinerPlan": plan}
			}})
	}
	for _, p := range [][3]int{{6, 2, 2}, {4, 2, 1}} {
		lc := must(lrc.New(p[0], p[1], p[2]))
		rows = append(rows, conformant{
			name: fmt.Sprintf("LRC(%d,%d,%d)", p[0], p[1], p[2]), codec: lc, decodable: lc.IsDecodable, undecodable: lrc.ErrUndecodable,
			repairs: func(blocks [][]byte, _ []byte) map[string]error {
				_, plan := lc.PlanRepair(lc.N(), make([]bool, lc.N()))
				_, repair := lc.Repair(lc.N(), blocks)
				return map[string]error{"PlanRepair": plan, "Repair": repair}
			}})
	}
	for _, p := range [][4]int{
		{12, 6, 6, 12}, {12, 6, 10, 10},
		{3, 2, 2, 3}, {4, 2, 2, 4}, {4, 2, 3, 4}, {6, 3, 3, 6}, {6, 3, 5, 6}, {8, 4, 7, 8}, {5, 3, 3, 4}, {9, 6, 6, 8},
	} {
		c := must(carousel.New(p[0], p[1], p[2], p[3]))
		rows = append(rows, conformant{
			name: fmt.Sprintf("Carousel(%d,%d,%d,%d)", p[0], p[1], p[2], p[3]), codec: c,
			undecodable: lincode.ErrTooFewBlocks,
			repairs: func(blocks [][]byte, dirty []byte) map[string]error {
				helpers := firstHelpers(c.N(), c.D(), c.N())
				chunks := make([][]byte, c.D())
				for i, h := range helpers {
					chunks[i] = must(c.HelperChunk(h, c.N()-1, blocks[h]))
				}
				return map[string]error{
					"HelperChunkInto": c.HelperChunkInto(0, c.N(), blocks[0], dirty[:c.HelperChunkSize(len(dirty))]),
					"RepairBlockInto": c.RepairBlockInto(c.N(), helpers, chunks, dirty),
					"WarmRepair":      c.WarmRepair(c.N(), helpers),
				}
			},
		})
	}
	return rows
}

// firstHelpers returns the first d block indices other than failed.
func firstHelpers(n, d, failed int) []int {
	helpers := make([]int, 0, d)
	for i := 0; i < n && len(helpers) < d; i++ {
		if i != failed {
			helpers = append(helpers, i)
		}
	}
	return helpers
}

func units(c codec) int { return c.GeneratorMatrix().Rows() / c.N() }

func randomShards(rng *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

func dirtyBlocks(n, size int) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{0xFF}, size)
	}
	return blocks
}

func allDirty(blocks [][]byte) bool {
	for _, b := range blocks {
		if !bytes.Equal(b, bytes.Repeat([]byte{0xFF}, len(b))) {
			return false
		}
	}
	return true
}

func equalShards(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestEveryDecodablePatternRoundTrips loses every subset of at most n-k
// blocks: a pattern the code calls decodable must return the data, any
// other its typed error.
func TestEveryDecodablePatternRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range conformants() {
		n, k := c.N(), c.K()
		data := randomShards(rng, k, 96*units(c)) // one byte a unit (RS): a 64-byte kernel pass and a 32-byte tail
		blocks := must(c.Encode(data))
		ok, refused := 0, 0
		for lost := 0; lost < 1<<n; lost++ {
			if bits.OnesCount(uint(lost)) > n-k {
				continue
			}
			avail := make([][]byte, n)
			available := make([]bool, n)
			for i := range avail {
				if lost&(1<<i) == 0 {
					avail[i], available[i] = blocks[i], true
				}
			}
			got, err := c.Decode(avail)
			if c.decodable != nil && !c.decodable(available) {
				if !errors.Is(err, c.undecodable) {
					t.Fatalf("%s: lost %012b: err = %v, want %v", c.name, lost, err, c.undecodable)
				}
				refused++
				continue
			}
			if err != nil || !equalShards(got, data) {
				t.Fatalf("%s: lost %012b: decode failed or differs (err = %v)", c.name, lost, err)
			}
			ok++
		}
		t.Logf("%s: %d patterns round-trip, %d refused", c.name, ok, refused)
		if (c.decodable == nil) != (refused == 0) {
			t.Errorf("%s: %d patterns refused", c.name, refused)
		}
	}
}

// TestEncodeIntoDirtyEqualsEncode: the one EncodeInto shape — k shards into
// n caller-owned blocks — overwrites every byte of 0xFF-filled destinations
// with exactly what Encode returns.
func TestEncodeIntoDirtyEqualsEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, c := range conformants() {
		size := 37 * units(c)
		data := randomShards(rng, c.K(), size)
		blocks := dirtyBlocks(c.N(), size)
		if err := c.EncodeInto(data, blocks); err != nil {
			t.Fatalf("%s: EncodeInto: %v", c.name, err)
		}
		if !equalShards(blocks, must(c.Encode(data))) {
			t.Errorf("%s: EncodeInto over dirty blocks differs from Encode", c.name)
		}
	}
}

// TestMalformedArgumentsAreTypedAndWriteNothing hands every entry point
// each kind of bad argument: the error is the matching sentinel and no
// destination byte has changed.
func TestMalformedArgumentsAreTypedAndWriteNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, c := range conformants() {
		n, k, u := c.N(), c.K(), units(c)
		size := 4 * u
		good := randomShards(rng, k, size)
		with := func(i int, shard []byte) [][]byte {
			data := append([][]byte(nil), good...)
			data[i] = shard
			return data
		}
		misaligned := randomShards(rng, k, size+1) // u == 1: nothing is misaligned but empty
		if u == 1 {
			misaligned = randomShards(rng, k, 0)
		}
		for _, tc := range []struct {
			name string
			data [][]byte
			want error
		}{
			{"k-1 shards", good[:k-1], lincode.ErrBlockCount},
			{"nil shard", with(1, nil), lincode.ErrBlockCount},
			{"ragged shard", with(k-1, make([]byte, size+u)), lincode.ErrBlockSizeMismatch},
			{"misaligned size", misaligned, lincode.ErrBlockSizeMismatch},
		} {
			if _, err := c.Encode(tc.data); !errors.Is(err, tc.want) {
				t.Errorf("%s: Encode with %s: err = %v, want %v", c.name, tc.name, err, tc.want)
			}
			blocks := dirtyBlocks(n, size)
			if err := c.EncodeInto(tc.data, blocks); !errors.Is(err, tc.want) {
				t.Errorf("%s: EncodeInto with %s: err = %v, want %v", c.name, tc.name, err, tc.want)
			}
			if !allDirty(blocks) {
				t.Errorf("%s: EncodeInto with %s wrote before refusing", c.name, tc.name)
			}
		}

		blocks := must(c.Encode(good))
		short := append([][]byte(nil), blocks...)
		short[n-1] = make([]byte, size+u)
		for _, tc := range []struct {
			name   string
			blocks [][]byte
			want   error
		}{
			{"n-1 blocks", blocks[:n-1], lincode.ErrBlockCount},
			{"ragged block", short, lincode.ErrBlockSizeMismatch},
			{"k-1 blocks present", append(blocks[:k-1:k-1], make([][]byte, n-k+1)...), c.undecodable},
			{"no block", make([][]byte, n), c.undecodable},
		} {
			if _, err := c.Decode(tc.blocks); !errors.Is(err, tc.want) {
				t.Errorf("%s: Decode with %s: err = %v, want %v", c.name, tc.name, err, tc.want)
			}
		}

		if c.repairs == nil {
			continue
		}
		dirty := bytes.Repeat([]byte{0xFF}, size)
		for entry, err := range c.repairs(blocks, dirty) {
			if !errors.Is(err, lincode.ErrBadHelpers) {
				t.Errorf("%s: %s with failed block %d: err = %v, want ErrBadHelpers", c.name, entry, n, err)
			}
		}
		if !allDirty([][]byte{dirty}) {
			t.Errorf("%s: a repair entry point wrote before refusing", c.name)
		}
	}
}

// TestSurvivingDataUnitsAreCopies is op elision, stated on the generator: a
// data unit that a source block stores verbatim (its row is a unit vector)
// reaches the decode output by one COPY, and when every data unit survives
// that way the plan does no GF arithmetic at all.
func TestSurvivingDataUnitsAreCopies(t *testing.T) {
	for _, c := range conformants() {
		n, k, u := c.N(), c.K(), units(c)
		gen := c.GeneratorMatrix()
		for _, lo := range []int{0, 1, n - k} {
			sources := make([]int, k)
			for i := range sources {
				sources[i] = lo + i
			}
			if lc, ok := c.codec.(*lrc.Code); ok && lo > 0 {
				avail := make([]bool, n)
				for _, s := range sources {
					avail[s] = true
				}
				if !lc.IsDecodable(avail) {
					continue
				}
			}
			plan, err := c.Plan(sources, nil)
			if err != nil {
				t.Fatalf("%s: Plan(%v): %v", c.name, sources, err)
			}
			kinds := plan.DstKinds()
			verbatim := 0
			for _, b := range sources {
				for r := b * u; r < (b+1)*u; r++ {
					col, ok := gen.UnitColumn(r)
					if !ok {
						continue
					}
					verbatim++
					if kinds[col] != codeplan.OpCopy {
						t.Errorf("%s: sources %v: data unit %d survives on block %d but is produced by %v", c.name, sources, col, b, kinds[col])
					}
				}
			}
			counts := plan.Counts()
			if gf := counts.Mul + counts.MulAdd; (verbatim == k*u) != (gf == 0) {
				t.Errorf("%s: sources %v: %d of %d data units survive verbatim but the plan has %d GF ops", c.name, sources, verbatim, k*u, gf)
			}
		}
	}
}

// TestConcurrentDecodes runs 8 goroutines over 4 survivor sets of a fresh
// code (fewer at n < 4), so every set's first decode races another
// goroutine's; the
// race detector watches the memo and each result must still be the data.
// (That each set is built exactly once is asserted on the memo itself, in
// TestMemoBuildsEachKeyOnce.)
func TestConcurrentDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, c := range conformants() {
		n, k := c.N(), c.K()
		data := randomShards(rng, k, 8*units(c))
		blocks := must(c.Encode(data))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				avail := append([][]byte(nil), blocks...)
				lost := g % 4 % n
				avail[lost] = nil // sets differ in which data-bearing block is lost
				if c.decodable == nil && n-k > 1 {
					avail[n-1-lost] = nil
				}
				got, err := c.Decode(avail)
				if err != nil || !equalShards(got, data) {
					t.Errorf("%s: goroutine %d: concurrent decode failed or differs (err = %v)", c.name, g, err)
				}
			}()
		}
		wg.Wait()
	}
}
