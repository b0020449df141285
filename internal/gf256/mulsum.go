package gf256

import "fmt"

// Group is a block of coefficients prepared for MulSum: row j computes
// out[dst[j]] = Σ_i coef[j][i] · in[src[i]]. On amd64 NewGroup expands
// every coefficient once into the forms the SIMD tiers load (a
// GF2P8AFFINEQB bit-matrix and a pair of 16-entry nibble tables), laid out
// in the order the kernels walk them, so the kernel loops do no table
// lookups.
//
// The kernels take the rows four at a time (four accumulators per loaded
// source) and any remainder one at a time. The expansions are stored per
// such row block, source-major: for the block starting at row r, source
// i's coefficients sit at r*len(src) + i*width + (0..width-1).
type Group struct {
	dst, src []int
	coef     []byte   // len(dst) x len(src), row-major
	mats     []uint64 // GFNI bit-matrices, row-block order
	nibs     []byte   // AVX2 nibble tables (low 16, high 16), row-block order
}

// sumWidth is the widest row block the kernels accumulate at once.
const sumWidth = 4

// blockWidth is the width of the row block starting at row r of an
// n-row group.
func blockWidth(r, n int) int {
	if n-r >= sumWidth {
		return sumWidth
	}
	return 1
}

// NewGroup prepares coef, a len(dst) x len(src) row-major coefficient
// block, for MulSum. Zero coefficients are allowed. The group must have at
// least one destination and one source. The slices are copied.
func NewGroup(dst, src []int, coef []byte) *Group {
	nd, ns := len(dst), len(src)
	if nd == 0 || ns == 0 || len(coef) != nd*ns {
		panic(fmt.Sprintf("gf256: NewGroup with %d destinations, %d sources and %d coefficients", nd, ns, len(coef)))
	}
	g := &Group{
		dst:  append([]int(nil), dst...),
		src:  append([]int(nil), src...),
		coef: append([]byte(nil), coef...),
	}
	g.expand()
	return g
}

// Size returns the group's destination and source counts; their product
// is the number of multiplies one MulSum performs per byte.
func (g *Group) Size() (dsts, srcs int) { return len(g.dst), len(g.src) }

// MulSum sets out[dst[j]][lo:hi] = Σ_i coef[j][i] · in[src[i]][lo:hi] for
// every row j of g. Each destination is overwritten, never read, so it may
// hold anything beforehand; no destination may overlap a source. On the
// SIMD tiers the sources are summed in registers and each destination
// vector is stored once, where a MulAddSlice per coefficient would read and
// write it once per source; rows go four at a time, sharing each source
// load.
func MulSum(g *Group, out, in [][]byte, lo, hi int) {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("gf256: MulSum range [%d, %d)", lo, hi))
	}
	for _, s := range g.src {
		if len(in[s]) < hi {
			panic(fmt.Sprintf("gf256: MulSum source %d has %d bytes, want %d", s, len(in[s]), hi))
		}
	}
	if lo == hi {
		return
	}
	for r := 0; r < len(g.dst); {
		w := blockWidth(r, len(g.dst))
		if !mulSumAsm(g, r, w, out, in, lo, hi) {
			g.mulSumSlices(r, w, out, in, lo, hi)
		}
		r += w
	}
}

// mulSumSlices is the reference tier: rows r..r+w-1 of g computed with
// MulSlice and MulAddSlice, one pass per coefficient.
func (g *Group) mulSumSlices(r, w int, out, in [][]byte, lo, hi int) {
	ns := len(g.src)
	for j := r; j < r+w; j++ {
		row := g.coef[j*ns : (j+1)*ns]
		d := out[g.dst[j]][lo:hi]
		MulSlice(row[0], in[g.src[0]][lo:hi], d)
		for i := 1; i < ns; i++ {
			MulAddSlice(row[i], in[g.src[i]][lo:hi], d)
		}
	}
}
