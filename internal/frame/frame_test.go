package frame

import (
	"bytes"
	"errors"
	"io"
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
