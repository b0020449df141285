//go:build amd64

package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// tierCase names one rung of the kernel ladder for the differential tests.
type tierCase struct {
	name string
	gfni bool
	avx2 bool
}

// availableTiers lists the ladder rungs this host can actually run, always
// including the pure scalar loops. The detection results are captured at
// init, before any test mutates the gates.
var (
	hostGFNI = useGFNI
	hostAVX2 = useAVX2
)

func availableTiers() []tierCase {
	tiers := []tierCase{{name: "scalar"}}
	if hostAVX2 {
		tiers = append(tiers, tierCase{name: "avx2", avx2: true})
	}
	if hostGFNI {
		// The production ladder runs GFNI with the AVX2 mop-up, so test
		// both that combination and GFNI alone (pure 64-byte prefix).
		tiers = append(tiers, tierCase{name: "gfni", gfni: true})
		if hostAVX2 {
			tiers = append(tiers, tierCase{name: "gfni+avx2", gfni: true, avx2: true})
		}
	}
	return tiers
}

// withTier runs fn with the kernel gates forced to tc and restores them.
// Tests using it must not run in parallel: the gates are plain package
// variables read by every kernel call.
func withTier(t *testing.T, tc tierCase, fn func()) {
	t.Helper()
	savedGFNI, savedAVX2 := useGFNI, useAVX2
	useGFNI, useAVX2 = tc.gfni, tc.avx2
	defer func() { useGFNI, useAVX2 = savedGFNI, savedAVX2 }()
	fn()
}

// tierSizes crosses both SIMD widths (32 and 64) and the scalar unroll in
// every combination: sub-register lengths, exact multiples, ragged tails.
var tierSizes = []int{0, 1, 7, 15, 16, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 200, 256, 1000, 4096, 4097}

// tierOffsets misalign the slice head relative to the allocation so the
// unaligned-load paths of both kernels are exercised.
var tierOffsets = []int{0, 1, 3, 8, 17, 31}

// TestTierLadderDifferential checks MulSlice, MulAddSlice, and AddSlice on
// every available tier against the trivially-correct reference, across
// misaligned heads, ragged tails, and sub-register lengths, for every
// coefficient. All tiers must be byte-identical.
func TestTierLadderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	backing := make([]byte, 8192)
	rng.Read(backing)
	accBacking := make([]byte, 8192)
	rng.Read(accBacking)
	for _, tier := range availableTiers() {
		t.Run(tier.name, func(t *testing.T) {
			withTier(t, tier, func() {
				for _, off := range tierOffsets {
					for _, n := range tierSizes {
						in := backing[off : off+n]
						acc := accBacking[off : off+n]
						for c := 0; c < 256; c += 7 { // every residue class incl. 0 and the generator orbit
							prod := refMul(byte(c), in)

							out := make([]byte, n)
							MulSlice(byte(c), in, out)
							if !bytes.Equal(out, prod) {
								t.Fatalf("MulSlice(c=%d, off=%d, n=%d) diverges from reference", c, off, n)
							}

							madd := make([]byte, n)
							copy(madd, acc)
							MulAddSlice(byte(c), in, madd)
							for i := range madd {
								if madd[i] != acc[i]^prod[i] {
									t.Fatalf("MulAddSlice(c=%d, off=%d, n=%d): byte %d = %#x, want %#x",
										c, off, n, i, madd[i], acc[i]^prod[i])
								}
							}
						}
						xout := make([]byte, n)
						copy(xout, acc)
						AddSlice(in, xout)
						for i := range xout {
							if xout[i] != acc[i]^in[i] {
								t.Fatalf("AddSlice(off=%d, n=%d): byte %d wrong", off, n, i)
							}
						}
					}
				}
			})
		})
	}
}

// TestTiersByteIdentical runs the same inputs through every tier and
// demands bit-equal outputs tier-to-tier (not just tier-to-reference):
// the property the Store relies on when a cluster mixes GFNI, AVX2, and
// scalar hosts.
func TestTiersByteIdentical(t *testing.T) {
	tiers := availableTiers()
	if len(tiers) < 2 {
		t.Skip("host has only the scalar tier")
	}
	rng := rand.New(rand.NewSource(43))
	in := make([]byte, 4097)
	acc := make([]byte, 4097)
	rng.Read(in)
	rng.Read(acc)
	for c := 0; c < 256; c++ {
		var first []byte
		for _, tier := range tiers {
			out := make([]byte, len(in))
			copy(out, acc)
			withTier(t, tier, func() { MulAddSlice(byte(c), in, out) })
			if first == nil {
				first = out
				continue
			}
			if !bytes.Equal(out, first) {
				t.Fatalf("c=%d: tier %s diverges from tier %s", c, tier.name, tiers[0].name)
			}
		}
	}
}

// TestMulSliceAVX2InPlace checks the documented in == out aliasing case on
// the AVX2 rung specifically.
func TestMulSliceAVX2InPlace(t *testing.T) {
	if !hostAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(44))
	buf := make([]byte, 200)
	rng.Read(buf)
	want := refMul(0x8e, buf)
	withTier(t, tierCase{name: "avx2", avx2: true}, func() { MulSlice(0x8e, buf, buf) })
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place AVX2 MulSlice diverges from reference")
	}
}

// FuzzKernelTiers feeds arbitrary coefficients, offsets, and payloads
// through every available tier and cross-checks them against the scalar
// reference.
func FuzzKernelTiers(f *testing.F) {
	f.Add(uint8(0x8e), uint8(1), []byte("0123456789abcdef0123456789abcdef0123456789abcdef"))
	f.Add(uint8(0), uint8(0), []byte{0xff})
	f.Add(uint8(1), uint8(31), make([]byte, 200))
	f.Fuzz(func(t *testing.T, c uint8, off uint8, data []byte) {
		o := int(off) % 32
		if o >= len(data) {
			o = 0
		}
		in := data[o:]
		want := refMul(c, in)
		acc := make([]byte, len(in))
		for i := range acc {
			acc[i] = byte(i * 31)
		}
		for _, tier := range availableTiers() {
			withTier(t, tier, func() {
				out := make([]byte, len(in))
				MulSlice(c, in, out)
				if !bytes.Equal(out, want) {
					t.Fatalf("tier %s: MulSlice(c=%d, n=%d) diverges", tier.name, c, len(in))
				}
				madd := make([]byte, len(in))
				copy(madd, acc)
				MulAddSlice(c, in, madd)
				for i := range madd {
					if madd[i] != acc[i]^want[i] {
						t.Fatalf("tier %s: MulAddSlice(c=%d, n=%d) byte %d wrong", tier.name, c, len(in), i)
					}
				}
			})
		}
		// Multi-source: up to 5 rows over up to 7 sources derived from the
		// payload, the coefficients a walk from c that passes through zero.
		nd, ns := 1+int(c)%5, 1+int(off)%7
		srcs := make([][]byte, ns)
		src := make([]int, ns)
		for i := range srcs {
			src[i] = i
			srcs[i] = make([]byte, len(in))
			for b, v := range in {
				srcs[i][b] = v ^ byte(i*17)
			}
		}
		coef := make([]byte, nd*ns)
		dst := make([]int, nd)
		for j := range coef {
			coef[j] = c + byte(j*37)
		}
		for j := range dst {
			dst[j] = j
		}
		sum := refMulSum(coef, nd, srcs)
		g := NewGroup(dst, src, coef)
		for _, tier := range availableTiers() {
			withTier(t, tier, func() {
				out := make([][]byte, nd)
				for j := range out {
					out[j] = make([]byte, len(in))
					copy(out[j], acc)
				}
				MulSum(g, out, srcs, 0, len(in))
				for j := range out {
					if !bytes.Equal(out[j], sum[j]) {
						t.Fatalf("tier %s: MulSum(rows %d, sources %d, n=%d) row %d diverges", tier.name, nd, ns, len(in), j)
					}
				}
			})
		}
	})
}

// Per-tier benchmarks: the ≥4x AVX2-over-scalar acceptance evidence.

func benchmarkTierMulAdd(b *testing.B, tc tierCase) {
	in := make([]byte, 1<<20)
	out := make([]byte, 1<<20)
	rand.New(rand.NewSource(5)).Read(in)
	savedGFNI, savedAVX2 := useGFNI, useAVX2
	useGFNI, useAVX2 = tc.gfni, tc.avx2
	defer func() { useGFNI, useAVX2 = savedGFNI, savedAVX2 }()
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x8e, in, out)
	}
}

func BenchmarkMulAddSliceScalar(b *testing.B) { benchmarkTierMulAdd(b, tierCase{}) }

func BenchmarkMulAddSliceAVX2(b *testing.B) {
	if !hostAVX2 {
		b.Skip("no AVX2 on this host")
	}
	benchmarkTierMulAdd(b, tierCase{avx2: true})
}

func BenchmarkMulAddSliceGFNI(b *testing.B) {
	if !hostGFNI {
		b.Skip("no GFNI on this host")
	}
	benchmarkTierMulAdd(b, tierCase{gfni: true, avx2: hostAVX2})
}

// refMulSum is MulSum's trivially-correct reference: each row is the XOR of
// refMul over the group's sources.
func refMulSum(coef []byte, nd int, srcs [][]byte) [][]byte {
	ns := len(srcs)
	want := make([][]byte, nd)
	for j := range want {
		want[j] = make([]byte, len(srcs[0]))
		for i, s := range srcs {
			for b, v := range refMul(coef[j*ns+i], s) {
				want[j][b] ^= v
			}
		}
	}
	return want
}

// TestMulSumTierDifferential checks MulSum on every available tier against
// the reference: group sizes 1..8 (whole and partial four-row blocks),
// source counts up to the 60 columns of the widest codec plan, every tier
// size plus a store unit (8,736 B, 136.5 vectors) and the swarm unit
// (819 B), ranges starting at the misaligned tierOffsets, zero
// coefficients, and dirty destinations whose bytes outside the range must
// survive.
func TestMulSumTierDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sizes := append(append([]int(nil), tierSizes...), 8736, 819)
	const guard = 64
	backing := make([][]byte, 60)
	for i := range backing {
		backing[i] = make([]byte, tierOffsets[len(tierOffsets)-1]+8736+guard)
		rng.Read(backing[i])
	}
	for _, tier := range availableTiers() {
		t.Run(tier.name, func(t *testing.T) {
			withTier(t, tier, func() {
				for nd := 1; nd <= 8; nd++ {
					for _, ns := range []int{1, 3, 10, 30, 60} {
						for si, n := range sizes {
							off := tierOffsets[(nd+ns+si)%len(tierOffsets)]
							checkMulSum(t, rng, backing[:ns], nd, off, n, guard)
						}
					}
				}
			})
		})
	}
}

// checkMulSum runs one nd-row MulSum over srcs[*][off:off+n] into dirty
// destinations and compares it with refMulSum.
func checkMulSum(t *testing.T, rng *rand.Rand, srcs [][]byte, nd, off, n, guard int) {
	t.Helper()
	ns := len(srcs)
	coef := make([]byte, nd*ns)
	rng.Read(coef)
	coef[rng.Intn(len(coef))] = 0
	if nd > 1 {
		coef[ns] = 0 // row 1 opens with a zero coefficient
	}
	dst := make([]int, nd)
	src := make([]int, ns)
	for j := range dst {
		dst[j] = nd - 1 - j // destinations need not be in order
	}
	for i := range src {
		src[i] = i
	}
	out := make([][]byte, nd)
	dirty := make([][]byte, nd)
	for j := range out {
		out[j] = make([]byte, off+n+guard)
		rng.Read(out[j])
		dirty[j] = append([]byte(nil), out[j]...)
	}
	window := make([][]byte, ns)
	for i, s := range srcs {
		window[i] = s[off : off+n]
	}
	want := refMulSum(coef, nd, window)
	in := make([][]byte, ns)
	for i, s := range srcs {
		in[i] = s[:off+n] // the kernel must not read past hi
	}
	MulSum(NewGroup(dst, src, coef), out, in, off, off+n)
	for j := range dst {
		got := out[dst[j]]
		if !bytes.Equal(got[off:off+n], want[j]) {
			t.Fatalf("MulSum(rows %d, sources %d, off %d, n %d): row %d diverges from the reference", nd, ns, off, n, j)
		}
		if !bytes.Equal(got[:off], dirty[dst[j]][:off]) || !bytes.Equal(got[off+n:], dirty[dst[j]][off+n:]) {
			t.Fatalf("MulSum(rows %d, sources %d, off %d, n %d): row %d wrote outside [lo, hi)", nd, ns, off, n, j)
		}
	}
}
