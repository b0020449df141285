// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is realized as GF(2)[x]/(x^8 + x^4 + x^3 + x^2 + 1), the same
// primitive polynomial (0x11d) used by Reed-Solomon implementations such as
// Intel ISA-L, which the Carousel paper's prototype builds on. Elements are
// bytes; addition is XOR; multiplication is carried out through exp/log
// tables. The package also provides slice kernels (MulSlice, MulAddSlice,
// AddSlice) that apply one coefficient across a buffer, and MulSum, which
// computes several rows of a matrix product at once over a Group of
// prepared coefficients: every source is summed into registers and each
// destination is stored once. MulSum is the hot loop of every encode,
// decode, and repair operation in this repository (internal/codeplan runs
// every plan through it); the slice kernels are its reference and its
// sub-vector path. On amd64 the kernels dispatch down the tier ladder in
// tier.go to assembly (GFNI + AVX-512, then AVX2); elsewhere they run the
// portable table loops below.
package gf256

import "fmt"

// Order is the number of elements in the field.
const Order = 256

// polynomial is the primitive polynomial x^8+x^4+x^3+x^2+1 with the x^8 term
// expressed as bit 8 (0x100).
const polynomial = 0x11d

// generator is a primitive element of the field; successive powers of it
// enumerate all 255 nonzero elements.
const generator = 0x02

var (
	// expTable[i] = generator^i for i in [0, 510). The table is doubled so
	// Mul can index exp[log(a)+log(b)] without a modular reduction.
	expTable [510]byte

	// logTable[a] = log_generator(a) for a != 0. logTable[0] is unused.
	logTable [256]byte

	// mulTable[a][b] = a*b. The full 64 KiB table makes scalar multiplies
	// and the slice kernels a single lookup per byte.
	mulTable [256][256]byte

	// invTable[a] = a^-1 for a != 0.
	invTable [256]byte
)

// The tables are deterministic pure functions of the polynomial, so they are
// computed in a variable initializer rather than init().
var _ = buildTables()

func buildTables() struct{} {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for i := 255; i < 510; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		la := int(logTable[a])
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[la+int(logTable[b])]
		}
		invTable[a] = expTable[255-la]
	}
	return struct{}{}
}

// Add returns a+b in GF(2^8). Addition and subtraction coincide (XOR).
func Add(a, b byte) byte { return a ^ b }

// Sub returns a-b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a/b in GF(2^8). It panics if b is zero; division by zero is a
// programmer error on par with integer division by zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return invTable[a]
}

// Exp returns generator^e. Negative exponents are accepted.
func Exp(e int) byte {
	e %= 255
	if e < 0 {
		e += 255
	}
	return expTable[e]
}

// Log returns the discrete logarithm of a to the base of the field
// generator. It panics if a is zero.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// Pow returns a^e. Pow(0, 0) is defined as 1.
func Pow(a byte, e int) byte {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	le := (int(logTable[a]) * e) % 255
	if le < 0 {
		le += 255
	}
	return expTable[le]
}

// MulRow returns the 256-entry multiplication row for coefficient c, i.e.
// row[b] = c*b. Callers that apply one coefficient across many buffers can
// hold the row pointer to avoid re-indexing the outer table.
func MulRow(c byte) *[256]byte { return &mulTable[c] }

// MulSlice sets out[i] = c*in[i] for every i. The two slices must have the
// same length and must not partially overlap (in == out is allowed).
func MulSlice(c byte, in, out []byte) {
	if len(in) != len(out) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(in), len(out)))
	}
	switch c {
	case 0:
		clear(out)
		return
	case 1:
		if len(in) > 0 && &in[0] != &out[0] {
			copy(out, in)
		}
		return
	}
	mt := &mulTable[c]
	n := len(in)
	i := mulSliceAsm(c, in, out)
	for ; i+8 <= n; i += 8 {
		out[i] = mt[in[i]]
		out[i+1] = mt[in[i+1]]
		out[i+2] = mt[in[i+2]]
		out[i+3] = mt[in[i+3]]
		out[i+4] = mt[in[i+4]]
		out[i+5] = mt[in[i+5]]
		out[i+6] = mt[in[i+6]]
		out[i+7] = mt[in[i+7]]
	}
	for ; i < n; i++ {
		out[i] = mt[in[i]]
	}
}

// MulAddSlice sets out[i] ^= c*in[i] for every i: a fused multiply-accumulate
// in the field. The two slices must have the same length and must not
// overlap.
func MulAddSlice(c byte, in, out []byte) {
	if len(in) != len(out) {
		panic(fmt.Sprintf("gf256: MulAddSlice length mismatch %d != %d", len(in), len(out)))
	}
	switch c {
	case 0:
		return
	case 1:
		AddSlice(in, out)
		return
	}
	mt := &mulTable[c]
	n := len(in)
	i := mulAddSliceAsm(c, in, out)
	for ; i+8 <= n; i += 8 {
		out[i] ^= mt[in[i]]
		out[i+1] ^= mt[in[i+1]]
		out[i+2] ^= mt[in[i+2]]
		out[i+3] ^= mt[in[i+3]]
		out[i+4] ^= mt[in[i+4]]
		out[i+5] ^= mt[in[i+5]]
		out[i+6] ^= mt[in[i+6]]
		out[i+7] ^= mt[in[i+7]]
	}
	for ; i < n; i++ {
		out[i] ^= mt[in[i]]
	}
}

// Nibble tables: lowNibble[c][b&0xf] ^ highNibble[c][b>>4] == c*b. This is
// the table layout SIMD implementations such as ISA-L use (two 16-entry
// shuffles); kept here as the reference alternative kernel so the table
// trade-off can be benchmarked against the 256-entry rows.
var (
	lowNibble  [256][16]byte
	highNibble [256][16]byte
)

var _ = buildNibbleTables()

func buildNibbleTables() struct{} {
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			lowNibble[c][x] = mulTable[c][x]
			highNibble[c][x] = mulTable[c][x<<4]
		}
	}
	return struct{}{}
}

// MulAddSliceNibble is MulAddSlice implemented with the two 16-entry
// nibble tables instead of a 256-entry row — the layout a SIMD backend
// would use. It exists for the kernel ablation benchmark; production paths
// use MulAddSlice, which is faster in pure Go.
func MulAddSliceNibble(c byte, in, out []byte) {
	if len(in) != len(out) {
		panic(fmt.Sprintf("gf256: MulAddSliceNibble length mismatch %d != %d", len(in), len(out)))
	}
	if c == 0 {
		return
	}
	lo := &lowNibble[c]
	hi := &highNibble[c]
	for i, v := range in {
		out[i] ^= lo[v&0x0f] ^ hi[v>>4]
	}
}

// AddSlice sets out[i] ^= in[i] for every i. The slices must have the same
// length and must not overlap.
func AddSlice(in, out []byte) {
	if len(in) != len(out) {
		panic(fmt.Sprintf("gf256: AddSlice length mismatch %d != %d", len(in), len(out)))
	}
	n := len(in)
	i := addSliceAsm(in, out)
	// XOR eight bytes per iteration; the compiler keeps these in registers.
	for ; i+8 <= n; i += 8 {
		out[i] ^= in[i]
		out[i+1] ^= in[i+1]
		out[i+2] ^= in[i+2]
		out[i+3] ^= in[i+3]
		out[i+4] ^= in[i+4]
		out[i+5] ^= in[i+5]
		out[i+6] ^= in[i+6]
		out[i+7] ^= in[i+7]
	}
	for ; i < n; i++ {
		out[i] ^= in[i]
	}
}
