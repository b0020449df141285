//go:build amd64

package gf256

// AVX2 split-nibble kernels: the middle rung of the tier ladder. A GF(2^8)
// multiply by a fixed coefficient c factors over nibbles — c*b equals
// lowNibble[c][b&0xf] ^ highNibble[c][b>>4] — so two 16-entry VPSHUFB
// lookups plus a VPXOR multiply 32 bytes per loop iteration. This is the
// classic ISA-L / PAR2 table layout; GFNI collapses it to one instruction,
// but AVX2 is what the vast majority of deployed amd64 hardware actually
// has, and without this tier those machines fall all the way back to the
// ~0.3 GB/s scalar table loop.

// Implemented in avx2_amd64.s.
func avx2MulAsm(lo, hi *[16]byte, dst, src *byte, n int)
func avx2MulAddAsm(lo, hi *[16]byte, dst, src *byte, n int)
func avx2XorAsm(dst, src *byte, n int)

//go:noescape
func avx2MulSum4(tbls *byte, in *[]byte, src *int, nsrc, off, n int, d0, d1, d2, d3 *byte)

//go:noescape
func avx2MulSum1(tbls *byte, in *[]byte, src *int, nsrc, off, n int, d0 *byte)

var useAVX2 = !tierDisabled("avx2") && detectAVX2()

// detectAVX2 gates the tier on CPUID (AVX2) and on the OS having enabled
// XMM+YMM state via XCR0 — executing a VEX.256 instruction without OS
// support faults just like EVEX does.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidx(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	xlo, _ := xgetbv()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidx(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}
