//go:build amd64

package gf256

// SIMD kernels for amd64. GF2P8AFFINEQB applies an arbitrary 8x8 bit-matrix
// over GF(2) to every byte of a vector, which expresses multiplication by a
// fixed field element in any GF(2^8) polynomial basis — including this
// package's 0x11d — 64 bytes per instruction in a ZMM register. The kernels
// are gated at startup on CPUID (GFNI + AVX-512F) and on the OS having
// enabled ZMM state via XCR0; everywhere else the pure-Go table loops in
// gf256.go run unchanged.

// Implemented in gfni_amd64.s.
func cpuidx(op, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)
func gfniMulAsm(mat uint64, dst, src *byte, n int)
func gfniMulAddAsm(mat uint64, dst, src *byte, n int)
func xorAsm(dst, src *byte, n int)

//go:noescape
func gfniMulSum4(mats *uint64, in *[]byte, src *int, nsrc, off, n int, d0, d1, d2, d3 *byte)

//go:noescape
func gfniMulSum1(mats *uint64, in *[]byte, src *int, nsrc, off, n int, d0 *byte)

var useGFNI = !tierDisabled("gfni") && detectGFNI()

func detectGFNI() bool {
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidx(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return false
	}
	// The OS must context-switch XMM, YMM, opmask, and both ZMM state
	// components, or executing an EVEX instruction faults.
	xlo, _ := xgetbv()
	if xlo&0xe6 != 0xe6 {
		return false
	}
	_, b7, c7, _ := cpuidx(7, 0)
	const avx512f = 1 << 16
	const gfni = 1 << 8
	return b7&avx512f != 0 && c7&gfni != 0
}

// gfniMatrices[c] is the 8x8 GF(2) matrix computing y = c*x in the 0x11d
// basis, packed the way GF2P8AFFINEQB expects: byte 7-i of the qword is row
// i, and bit j of row i is bit i of c*x^j. The table is built from the
// polynomial directly (not from mulTable) so it has no initialization-order
// dependency on the exp/log tables.
var gfniMatrices = buildGFNIMatrices()

func buildGFNIMatrices() *[256]uint64 {
	var t [256]uint64
	for c := 0; c < 256; c++ {
		// col[j] = c * x^j mod the field polynomial.
		var col [8]byte
		p := byte(c)
		for j := 0; j < 8; j++ {
			col[j] = p
			carry := p&0x80 != 0
			p <<= 1
			if carry {
				p ^= byte(polynomial & 0xff)
			}
		}
		var m uint64
		for i := 0; i < 8; i++ {
			var row byte
			for j := 0; j < 8; j++ {
				row |= (col[j] >> i & 1) << j
			}
			m |= uint64(row) << ((7 - i) * 8)
		}
		t[c] = m
	}
	return &t
}

// mulSliceAsm computes out[i] = c*in[i] for the longest SIMD-width-multiple
// prefix and returns its length; the caller finishes the tail. The tiers
// ladder: GFNI covers the 64-byte-multiple prefix, then AVX2 mops up a
// remaining 32-byte chunk (and carries the whole prefix on GFNI-less
// hardware). Returns 0 when no kernel is available, leaving the pure-Go
// path to do all work.
func mulSliceAsm(c byte, in, out []byte) int {
	i := 0
	if useGFNI {
		if w := len(in) &^ 63; w > 0 {
			gfniMulAsm(gfniMatrices[c], &out[0], &in[0], w)
			i = w
		}
	}
	if useAVX2 {
		if w := (len(in) - i) &^ 31; w > 0 {
			avx2MulAsm(&lowNibble[c], &highNibble[c], &out[i], &in[i], w)
			i += w
		}
	}
	return i
}

// mulAddSliceAsm computes out[i] ^= c*in[i] for the longest
// SIMD-width-multiple prefix and returns its length.
func mulAddSliceAsm(c byte, in, out []byte) int {
	i := 0
	if useGFNI {
		if w := len(in) &^ 63; w > 0 {
			gfniMulAddAsm(gfniMatrices[c], &out[0], &in[0], w)
			i = w
		}
	}
	if useAVX2 {
		if w := (len(in) - i) &^ 31; w > 0 {
			avx2MulAddAsm(&lowNibble[c], &highNibble[c], &out[i], &in[i], w)
			i += w
		}
	}
	return i
}

// expand fills g's per-tier coefficient forms in row-block order (see
// Group).
func (g *Group) expand() {
	nd, ns := len(g.dst), len(g.src)
	g.mats = make([]uint64, 0, nd*ns)
	g.nibs = make([]byte, 0, 32*nd*ns)
	for r := 0; r < nd; {
		w := blockWidth(r, nd)
		for i := 0; i < ns; i++ {
			for j := r; j < r+w; j++ {
				c := g.coef[j*ns+i]
				g.mats = append(g.mats, gfniMatrices[c])
				g.nibs = append(g.nibs, lowNibble[c][:]...)
				g.nibs = append(g.nibs, highNibble[c][:]...)
			}
		}
		r += w
	}
}

// mulSumAsm runs MulSum's rows r..r+w-1 (w is 4 or 1) over [lo, hi) on the
// best tier whose vector width the range covers, and reports whether one
// did. The kernels finish a ragged tail by recomputing one last full
// vector that ends at hi, so any length of at least one vector runs
// entirely in assembly.
func mulSumAsm(g *Group, r, w int, out, in [][]byte, lo, hi int) bool {
	n, ns := hi-lo, len(g.src)
	var d [sumWidth]*byte
	for j := range w {
		d[j] = &out[g.dst[r+j]][lo:hi][0]
	}
	switch {
	case useGFNI && n >= 64:
		m := &g.mats[r*ns]
		if w == 1 {
			gfniMulSum1(m, &in[0], &g.src[0], ns, lo, n, d[0])
		} else {
			gfniMulSum4(m, &in[0], &g.src[0], ns, lo, n, d[0], d[1], d[2], d[3])
		}
	case useAVX2 && n >= 32:
		t := &g.nibs[32*r*ns]
		if w == 1 {
			avx2MulSum1(t, &in[0], &g.src[0], ns, lo, n, d[0])
		} else {
			avx2MulSum4(t, &in[0], &g.src[0], ns, lo, n, d[0], d[1], d[2], d[3])
		}
	default:
		return false
	}
	return true
}

// addSliceAsm computes out[i] ^= in[i] for the longest SIMD-width-multiple
// prefix and returns its length.
func addSliceAsm(in, out []byte) int {
	i := 0
	if useGFNI {
		if w := len(in) &^ 63; w > 0 {
			xorAsm(&out[0], &in[0], w)
			i = w
		}
	}
	if useAVX2 {
		if w := (len(in) - i) &^ 31; w > 0 {
			avx2XorAsm(&out[i], &in[i], w)
			i += w
		}
	}
	return i
}
