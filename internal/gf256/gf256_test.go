package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if got := Add(0x53, 0xca); got != 0x53^0xca {
		t.Fatalf("Add(0x53, 0xca) = %#x, want %#x", got, 0x53^0xca)
	}
	if got := Sub(0x53, 0xca); got != 0x53^0xca {
		t.Fatalf("Sub(0x53, 0xca) = %#x, want %#x", got, 0x53^0xca)
	}
}

func TestMulKnownValues(t *testing.T) {
	// Hand-checked products under polynomial 0x11d.
	tests := []struct {
		a, b, want byte
	}{
		{0, 0, 0},
		{0, 21, 0},
		{1, 1, 1},
		{1, 0xff, 0xff},
		{2, 2, 4},
		{2, 0x80, 0x1d},    // x * x^7 = x^8 = 0x1d mod polynomial
		{0x80, 0x80, 0x13}, // x^14 mod polynomial
		{3, 7, 9},          // (x+1)(x^2+x+1) = x^3+1
	}
	for _, tt := range tests {
		if got := Mul(tt.a, tt.b); got != tt.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if got := Mul(byte(a), 1); got != byte(a) {
			t.Fatalf("Mul(%d, 1) = %d, want %d", a, got, a)
		}
		if got := Mul(byte(a), 0); got != 0 {
			t.Fatalf("Mul(%d, 0) = %d, want 0", a, got)
		}
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if got := Mul(byte(a), inv); got != 1 {
			t.Fatalf("Mul(%d, Inv(%d)) = %d, want 1", a, a, got)
		}
		for _, b := range []byte{1, 2, 0x1d, 0xff} {
			q := Div(byte(a), b)
			if got := Mul(q, b); got != byte(a) {
				t.Fatalf("Div(%d, %d)*%d = %d, want %d", a, b, b, got, a)
			}
		}
	}
	if got := Div(0, 7); got != 0 {
		t.Fatalf("Div(0, 7) = %d, want 0", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(1, 0) did not panic")
		}
	}()
	Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := Exp(Log(byte(a))); got != byte(a) {
			t.Fatalf("Exp(Log(%d)) = %d", a, got)
		}
	}
	if Exp(0) != 1 {
		t.Fatalf("Exp(0) = %d, want 1", Exp(0))
	}
	if Exp(255) != 1 {
		t.Fatalf("Exp(255) = %d, want 1 (multiplicative order)", Exp(255))
	}
	if Exp(-1) != Inv(generator) {
		t.Fatalf("Exp(-1) = %d, want Inv(generator) = %d", Exp(-1), Inv(generator))
	}
}

func TestGeneratorIsPrimitive(t *testing.T) {
	seen := make(map[byte]bool, 255)
	x := byte(1)
	for i := 0; i < 255; i++ {
		if seen[x] {
			t.Fatalf("generator cycle repeats after %d steps", i)
		}
		seen[x] = true
		x = Mul(x, generator)
	}
	if x != 1 {
		t.Fatalf("generator^255 = %d, want 1", x)
	}
}

func TestPow(t *testing.T) {
	tests := []struct {
		a    byte
		e    int
		want byte
	}{
		{0, 0, 1},
		{0, 5, 0},
		{7, 0, 1},
		{2, 8, 0x1d},
		{2, 255, 1},
	}
	for _, tt := range tests {
		if got := Pow(tt.a, tt.e); got != tt.want {
			t.Errorf("Pow(%d, %d) = %#x, want %#x", tt.a, tt.e, got, tt.want)
		}
	}
	f := func(a byte, e uint8) bool {
		want := byte(1)
		for i := 0; i < int(e); i++ {
			want = Mul(want, a)
		}
		return Pow(a, int(e)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		in := make([]byte, n)
		rng.Read(in)
		for _, c := range []byte{0, 1, 2, 0x8e, 0xff} {
			out := make([]byte, n)
			MulSlice(c, in, out)
			for i := range in {
				if want := Mul(c, in[i]); out[i] != want {
					t.Fatalf("MulSlice(c=%d, n=%d): out[%d] = %d, want %d", c, n, i, out[i], want)
				}
			}
		}
	}
}

func TestMulSliceInPlace(t *testing.T) {
	in := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	want := make([]byte, len(in))
	MulSlice(0x57, in, want)
	MulSlice(0x57, in, in)
	if !bytes.Equal(in, want) {
		t.Fatalf("in-place MulSlice mismatch: got %v, want %v", in, want)
	}
	// c == 1 in place must be a no-op and must not copy overlapping slices.
	one := []byte{10, 20, 30}
	MulSlice(1, one, one)
	if !bytes.Equal(one, []byte{10, 20, 30}) {
		t.Fatalf("in-place identity MulSlice changed data: %v", one)
	}
}

func TestMulAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 8, 13, 256} {
		in := make([]byte, n)
		out := make([]byte, n)
		rng.Read(in)
		rng.Read(out)
		orig := append([]byte(nil), out...)
		for _, c := range []byte{0, 1, 3, 0xd0} {
			cp := append([]byte(nil), orig...)
			MulAddSlice(c, in, cp)
			for i := range in {
				if want := orig[i] ^ Mul(c, in[i]); cp[i] != want {
					t.Fatalf("MulAddSlice(c=%d, n=%d): out[%d] = %d, want %d", c, n, i, cp[i], want)
				}
			}
		}
	}
}

func TestAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := make([]byte, 31)
	out := make([]byte, 31)
	rng.Read(in)
	rng.Read(out)
	want := make([]byte, 31)
	for i := range want {
		want[i] = in[i] ^ out[i]
	}
	AddSlice(in, out)
	if !bytes.Equal(out, want) {
		t.Fatalf("AddSlice mismatch: got %v, want %v", out, want)
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MulSlice":    func() { MulSlice(2, make([]byte, 3), make([]byte, 4)) },
		"MulAddSlice": func() { MulAddSlice(2, make([]byte, 3), make([]byte, 4)) },
		"AddSlice":    func() { AddSlice(make([]byte, 3), make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMulRow(t *testing.T) {
	row := MulRow(0x35)
	for b := 0; b < 256; b++ {
		if row[b] != Mul(0x35, byte(b)) {
			t.Fatalf("MulRow(0x35)[%d] = %d, want %d", b, row[b], Mul(0x35, byte(b)))
		}
	}
}

func TestMulAddSliceNibbleMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]byte, 257)
	rng.Read(in)
	for _, c := range []byte{0, 1, 2, 0x53, 0xff} {
		a := make([]byte, len(in))
		b := make([]byte, len(in))
		rng.Read(a)
		copy(b, a)
		MulAddSlice(c, in, a)
		MulAddSliceNibble(c, in, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("c=%d: nibble kernel differs from row kernel", c)
		}
	}
}

func BenchmarkMulAddSliceNibble(b *testing.B) {
	in := make([]byte, 64*1024)
	out := make([]byte, 64*1024)
	rand.New(rand.NewSource(8)).Read(in)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSliceNibble(0x8e, in, out)
	}
}

func BenchmarkMulAddSlice(b *testing.B) {
	in := make([]byte, 64*1024)
	out := make([]byte, 64*1024)
	rand.New(rand.NewSource(4)).Read(in)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x8e, in, out)
	}
}

func BenchmarkMulSlice(b *testing.B) {
	in := make([]byte, 64*1024)
	out := make([]byte, 64*1024)
	rand.New(rand.NewSource(5)).Read(in)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSlice(0x8e, in, out)
	}
}

func BenchmarkAddSlice(b *testing.B) {
	in := make([]byte, 64*1024)
	out := make([]byte, 64*1024)
	rand.New(rand.NewSource(6)).Read(in)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddSlice(in, out)
	}
}

// BenchmarkMulSumUnit is the kernel layer of the layer walk at the store's
// unit size: 8 rows over 30 sources of one 8,736-byte unit each, the
// fixture encode's group shape, untiled. SetBytes counts products (rows ×
// sources × bytes), so its MB/s compares with BenchmarkMulAddSlice1MiB's
// one product per byte.
func BenchmarkMulSumUnit(b *testing.B) {
	const rows, srcs, unit = 8, 30, 8736
	rng := rand.New(rand.NewSource(7))
	in := make([][]byte, srcs)
	src := make([]int, srcs)
	for i := range in {
		in[i] = make([]byte, unit)
		rng.Read(in[i])
		src[i] = i
	}
	out := make([][]byte, rows)
	dst := make([]int, rows)
	for j := range out {
		out[j] = make([]byte, unit)
		dst[j] = j
	}
	coef := make([]byte, rows*srcs)
	rng.Read(coef)
	g := NewGroup(dst, src, coef)
	b.SetBytes(rows * srcs * unit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSum(g, out, in, 0, unit)
	}
}
