package frame

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// record encodes one whole record: header, meta and payload.
func record(kind byte, meta, payload []byte) []byte {
	h := Header{Kind: kind, Meta: meta, Len: len(payload), CRC: Checksum(payload)}
	return append(h.Append(nil), payload...)
}

// TestRoundTrip: records written back to back decode to what was encoded,
// and the stream then ends in a clean io.EOF.
func TestRoundTrip(t *testing.T) {
	recs := []struct {
		kind          byte
		meta, payload []byte
	}{
		{1, []byte("\x00\x03blk"), []byte("payload")},
		{2, nil, nil},
		{3, bytes.Repeat([]byte("m"), 5000), bytes.Repeat([]byte("p"), 70000)},
	}
	var stream []byte
	for _, r := range recs {
		stream = append(stream, record(r.kind, r.meta, r.payload)...)
	}
	fr := NewReader(bytes.NewReader(stream), 1<<20)
	for i, r := range recs {
		h, err := fr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if h.Kind != r.kind || !bytes.Equal(h.Meta, r.meta) || h.Len != len(r.payload) {
			t.Fatalf("record %d: header %+v", i, h)
		}
		got := make([]byte, h.Len)
		if err := fr.Payload(h, got); err != nil || !bytes.Equal(got, r.payload) {
			t.Fatalf("record %d: payload err %v", i, err)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
}

// TestPayloadInParts: a payload sent as several slices, its CRC32C
// extended part by part with Update, is the record a single slice makes,
// and reads back into several destinations split elsewhere.
func TestPayloadInParts(t *testing.T) {
	parts := [][]byte{[]byte("stripe 0 prefix|"), nil, []byte("stripe 1|"), bytes.Repeat([]byte("x"), 300)}
	var crc uint32
	for _, p := range parts {
		crc = Update(crc, p)
	}
	whole := bytes.Join(parts, nil)
	if crc != Checksum(whole) {
		t.Fatalf("Update over the parts = %08x, Checksum of the whole = %08x", crc, Checksum(whole))
	}
	stream := append(Header{Kind: 1, Len: len(whole), CRC: crc}.Append(nil), whole...)
	fr := NewReader(bytes.NewReader(stream), 1<<20)
	h, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	a, b := make([]byte, 7), make([]byte, len(whole)-7)
	if err := fr.Payload(h, a, b); err != nil || !bytes.Equal(append(a, b...), whole) {
		t.Fatalf("payload in two destinations: %v", err)
	}
}

// TestCombine: Combine of the parts' CRCs is Checksum of their
// concatenation, over random splits of random data — empty parts among
// them, and lengths on both sides of powers of two — and PayloadCRCs
// reports each destination's own CRC while it verifies the whole.
func TestCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	data := make([]byte, 1<<17+3)
	rng.Read(data)
	var lens []int
	for b := 0; b <= 17; b++ {
		lens = append(lens, 1<<b-1, 1<<b, 1<<b+1)
	}
	for trial := 0; trial < 300; trial++ {
		whole := data[:lens[rng.Intn(len(lens))]]
		if trial%3 == 0 {
			whole = data[:rng.Intn(len(data)+1)]
		}
		// Cut points at random, repeated cuts making empty parts.
		cuts := []int{0, len(whole)}
		for range rng.Intn(6) {
			cuts = append(cuts, rng.Intn(len(whole)+1))
		}
		if trial%4 == 0 {
			cuts = append(cuts, cuts[len(cuts)-1]) // an empty part at least
		}
		slices.Sort(cuts)
		var crc uint32
		parts := make([][]byte, len(cuts)-1)
		for i := range parts {
			parts[i] = whole[cuts[i]:cuts[i+1]]
			crc = Combine(crc, Checksum(parts[i]), len(parts[i]))
		}
		if want := Checksum(whole); crc != want {
			t.Fatalf("trial %d, cuts %v: Combine over the parts = %08x, Checksum of the whole = %08x", trial, cuts, crc, want)
		}
		stream := append(Header{Kind: 1, Len: len(whole), CRC: crc}.Append(nil), whole...)
		fr := NewReader(bytes.NewReader(stream), len(whole))
		h, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		dst, crcs := make([][]byte, len(parts)), make([]uint32, len(parts))
		for i, p := range parts {
			dst[i] = make([]byte, len(p))
		}
		if err := fr.PayloadCRCs(h, 0, crcs, dst...); err != nil {
			t.Fatalf("trial %d, cuts %v: PayloadCRCs: %v", trial, cuts, err)
		}
		for i, p := range parts {
			if !bytes.Equal(dst[i], p) || crcs[i] != Checksum(p) {
				t.Fatalf("trial %d, cuts %v: destination %d holds other bytes or CRC %08x, want %08x", trial, cuts, i, crcs[i], Checksum(p))
			}
		}
	}
	// One reader over records of differently sized parts: the shift it
	// keeps from the last record's parts is recomputed when the size
	// changes.
	var stream []byte
	sizes := []int{5, 7, 5, 5, 1 << 12}
	for _, n := range sizes {
		rec := data[:3*n]
		stream = append(append(stream, Header{Kind: 1, Len: len(rec), CRC: Checksum(rec)}.Append(nil)...), rec...)
	}
	fr := NewReader(bytes.NewReader(stream), len(stream))
	for _, n := range sizes {
		h, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		dst := [][]byte{make([]byte, n), make([]byte, n), make([]byte, n)}
		if err := fr.PayloadCRCs(h, 0, nil, dst...); err != nil || !bytes.Equal(bytes.Join(dst, nil), data[:3*n]) {
			t.Fatalf("three %d-byte parts after other sizes: %v", n, err)
		}
	}

	// Equal-length destinations share one shift; a flipped byte in any of
	// them is still refused.
	blocks := bytes.Repeat(data[:4096], 8)
	stream = append(Header{Kind: 1, Len: len(blocks), CRC: Checksum(blocks)}.Append(nil), blocks...)
	for i := 0; i < len(blocks); i += 4093 {
		bad := bytes.Clone(stream)
		bad[HeaderLen+i] ^= 0x20
		fr := NewReader(bytes.NewReader(bad), len(blocks))
		h, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		dst := make([][]byte, 8)
		for j := range dst {
			dst[j] = make([]byte, 4096)
		}
		if err := fr.PayloadCRCs(h, 0, make([]uint32, 8), dst...); !errors.Is(err, ErrPayload) {
			t.Fatalf("payload byte %d flipped: PayloadCRCs = %v, want ErrPayload", i, err)
		}
	}
}

// TestPayloadGranules: PayloadCRCs at a grain reports the CRC32C of every
// granule of every destination, in order — a shorter last granule, an
// empty destination and a grain at or past a destination's length among
// them — while it verifies the whole; a flipped byte is refused with every
// granule's CRC still reported, so only the granule it hit differs.
func TestPayloadGranules(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	data := make([]byte, 1<<15)
	rng.Read(data)
	for trial := 0; trial < 200; trial++ {
		lens := make([]int, 1+rng.Intn(4))
		n := 0
		for i := range lens {
			if lens[i] = rng.Intn(3000); trial%5 == 0 && i == 0 {
				lens[i] = 0
			}
			n += lens[i]
		}
		grain := rng.Intn(1200) - 100 // some not positive
		if trial%7 == 0 {
			grain = lens[0]
		}
		whole := data[:n]
		var want []uint32
		var parts [][]byte
		for off, i := 0, 0; i < len(lens); off, i = off+lens[i], i+1 {
			d := whole[off : off+lens[i]]
			parts = append(parts, make([]byte, len(d)))
			g, size := Granules(len(d), grain), len(d)
			if g > 1 {
				size = grain
			}
			for j := range g {
				want = append(want, Checksum(d[j*size:min((j+1)*size, len(d))]))
			}
		}
		stream := append(Header{Kind: 1, Len: n, CRC: Checksum(whole)}.Append(nil), whole...)
		for _, flip := range []int{-1, rng.Intn(n + 1)} {
			bad := bytes.Clone(stream)
			if flip >= 0 && flip < n {
				bad[HeaderLen+flip] ^= 0x10
			}
			fr := NewReader(bytes.NewReader(bad), n)
			h, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			crcs := make([]uint32, len(want))
			err = fr.PayloadCRCs(h, grain, crcs, parts...)
			differ := 0
			for j := range want {
				if crcs[j] != want[j] {
					differ++
				}
			}
			switch {
			case flip < 0 || flip == n:
				if err != nil || differ != 0 || !bytes.Equal(bytes.Join(parts, nil), whole) {
					t.Fatalf("trial %d, lens %v, grain %d: %v, %d granule CRCs differ", trial, lens, grain, err, differ)
				}
			case !errors.Is(err, ErrPayload) || differ != 1:
				t.Fatalf("trial %d, lens %v, grain %d, byte %d flipped: %v, %d granule CRCs differ, want ErrPayload and 1", trial, lens, grain, flip, err, differ)
			}
		}
	}
}

// TestEveryHeaderBitIsVerified: flipping any one bit of a header — the
// fixed part or the meta — is refused with ErrHeader before any length in
// it is used, so the reader never waits for bytes a damaged length names.
func TestEveryHeaderBitIsVerified(t *testing.T) {
	rec := record(7, []byte("\x00\x04name\x00\x00\x00\x01"), []byte("the payload"))
	hdrLen := HeaderLen + 10
	for b := 0; b < 8*hdrLen; b++ {
		bad := bytes.Clone(rec)
		bad[b/8] ^= 1 << (b % 8)
		// A stream that ends right after the header: a reader that trusted
		// a grown meta length would report a short read, not a checksum.
		_, err := NewReader(bytes.NewReader(bad[:hdrLen]), 1<<20).Next()
		if !errors.Is(err, ErrHeader) {
			t.Fatalf("bit %d: Next = %v, want ErrHeader", b, err)
		}
	}
}

// TestReaderErrors names each way a stream can end badly.
func TestReaderErrors(t *testing.T) {
	rec := record(1, []byte("meta"), []byte("payload"))
	cases := []struct {
		name   string
		stream []byte
		limit  int
		want   error
	}{
		{"empty", nil, 100, io.EOF},
		{"short header", rec[:HeaderLen-1], 100, io.ErrUnexpectedEOF},
		{"short meta", rec[:HeaderLen+2], 100, io.ErrUnexpectedEOF},
		{"over the limit", rec, 3, ErrTooLarge},
	}
	for _, c := range cases {
		if _, err := NewReader(bytes.NewReader(c.stream), c.limit).Next(); !errors.Is(err, c.want) {
			t.Errorf("%s: Next = %v, want %v", c.name, err, c.want)
		}
	}
	for _, c := range []struct {
		name   string
		stream []byte
		want   error
	}{
		{"no payload", rec[:len(rec)-7], io.ErrUnexpectedEOF},
		{"short payload", rec[:len(rec)-1], io.ErrUnexpectedEOF},
		{"damaged payload", append(bytes.Clone(rec[:len(rec)-1]), 'X'), ErrPayload},
	} {
		fr := NewReader(bytes.NewReader(c.stream), 100)
		h, err := fr.Next()
		if err != nil {
			t.Fatalf("%s: Next: %v", c.name, err)
		}
		if err := fr.Payload(h, make([]byte, h.Len)); !errors.Is(err, c.want) {
			t.Errorf("%s: Payload = %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzReadHeader: any byte stream decodes to a run of valid records and
// then an error — every header returned re-encodes to exactly the bytes it
// was read from, its payload is what follows it, and no payload over the
// reader's limit is ever named by a returned header.
func FuzzReadHeader(f *testing.F) {
	f.Add(record(1, []byte("\x00\x03blk"), []byte("data")))
	f.Add(append(record(0, nil, nil), record(2, nil, []byte("x"))...))
	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewReader(bytes.NewReader(data), limit)
		off := 0
		for {
			h, err := fr.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && err != ErrHeader && !errors.Is(err, ErrTooLarge) {
					t.Fatalf("Next: unexpected error %v", err)
				}
				return
			}
			enc := h.Append(nil)
			if h.Len > limit || !bytes.Equal(enc, data[off:off+len(enc)]) {
				t.Fatalf("header %+v at %d does not re-encode to its bytes", h, off)
			}
			off += len(enc)
			payload := make([]byte, h.Len)
			if err := fr.Payload(h, payload); err != nil {
				if err != io.ErrUnexpectedEOF && err != ErrPayload {
					t.Fatalf("Payload: unexpected error %v", err)
				}
				return
			}
			if !bytes.Equal(payload, data[off:off+h.Len]) {
				t.Fatalf("payload at %d is not the stream's bytes", off)
			}
			off += h.Len
		}
	})
}
