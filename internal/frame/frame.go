// Package frame is the one definition of a checksummed record, shared by
// the block protocol (requests and responses) and the master's journal:
//
//	header  := kind(1) metaLen(2) payloadLen(4) payloadCRC(4) metaCRC(4) headerCRC(4) meta
//	record  := header payload
//
// headerCRC is the CRC32C of the 15 bytes before it, so it covers the kind,
// both lengths and both content CRCs, and through metaCRC the meta section
// too. A Reader verifies headerCRC before it acts on any field: a flipped
// length can neither size an allocation nor leave the reader waiting for
// bytes that will never come. Only then does it read metaLen bytes of meta
// and check them against metaCRC. The payload keeps its own CRC32C, which a
// receiver can retain as the content's at-rest checksum — whole, or as the
// CRC32Cs of fixed granules that PayloadCRCs reports from the same pass.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderLen is the size of a header without its meta section.
const HeaderLen = 19

var (
	// ErrHeader marks a header (or meta section) that fails its CRC32C.
	ErrHeader = errors.New("frame: header checksum mismatch")
	// ErrPayload marks a payload that fails its CRC32C.
	ErrPayload = errors.New("frame: payload checksum mismatch")
	// ErrTooLarge marks a verified header naming a payload over the
	// reader's limit.
	ErrTooLarge = errors.New("frame: payload exceeds limit")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of b: the one checksum of the repo's frames,
// stored blocks and control-plane bodies (the polynomial HDFS datanodes use).
func Checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// Update returns crc extended by the CRC32C of b, so a payload sent as
// several slices is checksummed without joining them:
// Update(Checksum(a), b) == Checksum(a‖b).
func Update(crc uint32, b []byte) uint32 {
	return crc32.Update(crc, castagnoli, b)
}

// Combine returns the CRC32C of a‖b from crcA = Checksum(a), crcB =
// Checksum(b) and lenB = len(b), without the bytes: CRC32C is linear, so
// crc(a‖b) is crcA carried past lenB bytes, which is a multiplication by
// x^(8·lenB) modulo the polynomial, xor crcB. A receiver that checksums
// the parts of a payload one by one checks the whole with it.
func Combine(crcA, crcB uint32, lenB int) uint32 {
	return mulModP(shiftBytes(lenB), crcA) ^ crcB
}

// Combiner is Combine that keeps the shift for the last length it carried
// a CRC past, so combining a run of equal-length parts — the granules of a
// block, the blocks of a put, the ranges of an answer — computes it once.
// The zero value is ready to use.
type Combiner struct {
	n     int
	shift uint32 // x^(8n) mod P, never zero once computed
}

// Combine returns the CRC32C of a‖b, as the package-level Combine does.
func (c *Combiner) Combine(crcA, crcB uint32, lenB int) uint32 {
	if crcA == 0 { // a zero CRC carried past any bytes stays zero
		return crcB
	}
	if lenB != c.n || c.shift == 0 {
		c.n, c.shift = lenB, shiftBytes(lenB)
	}
	return mulModP(c.shift, crcA) ^ crcB
}

// castagnoliPoly is the Castagnoli polynomial in the reflected bit order
// hash/crc32 computes in: bit 31 is x^0, bit 0 is x^31, x^32 implied.
const castagnoliPoly = 0x82f63b78

// shifts[i] is x^(8·2^i) mod P: the factor that carries a CRC past 2^i
// bytes.
var shifts = func() (t [64]uint32) {
	p := uint32(1) << 23 // x^8
	for i := range t {
		t[i] = p
		p = mulModP(p, p)
	}
	return t
}()

// shiftBytes returns x^(8n) mod P, the factor that carries a CRC past n
// bytes: one multiplication per set bit of n.
func shiftBytes(n int) uint32 {
	p := uint32(1) << 31 // x^0
	for i := 0; n != 0; n, i = n>>1, i+1 {
		if n&1 != 0 {
			p = mulModP(shifts[i], p)
		}
	}
	return p
}

// mulModP returns a·b mod P over GF(2), in the reflected order: the terms
// of a, from x^0 up, select b·x^j as b is multiplied by x each step.
func mulModP(a, b uint32) (p uint32) {
	for ; a != 0; a <<= 1 {
		if a&(1<<31) != 0 {
			p ^= b
		}
		b = b>>1 ^ castagnoliPoly&-(b&1)
	}
	return p
}

// Header describes one record. On the decode side Meta aliases the Reader's
// scratch and is valid until its next call to Next.
type Header struct {
	Kind byte
	Meta []byte // at most 64 KiB − 1 bytes
	Len  int    // payload length
	CRC  uint32 // payload CRC32C
}

// Append appends the encoded header to dst. The payload follows it on the
// wire; the caller sends it, so it can go out without a copy.
func (h Header) Append(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...) // encoded in place: no scratch
	p := dst[n:]
	p[0] = h.Kind
	binary.BigEndian.PutUint16(p[1:3], uint16(len(h.Meta)))
	binary.BigEndian.PutUint32(p[3:7], uint32(h.Len))
	binary.BigEndian.PutUint32(p[7:11], h.CRC)
	binary.BigEndian.PutUint32(p[11:15], Checksum(h.Meta))
	binary.BigEndian.PutUint32(p[15:19], Checksum(p[:15]))
	return append(dst, h.Meta...)
}

// Reader decodes records from a stream.
type Reader struct {
	r     io.Reader
	limit int
	hdr   [HeaderLen]byte
	meta  []byte   // grown only to a verified metaLen
	comb  Combiner // PayloadCRCs' combine of the parts it checksums
}

// NewReader returns a Reader over r that refuses payloads over limit bytes.
func NewReader(r io.Reader, limit int) *Reader {
	return &Reader{r: r, limit: limit}
}

// Next reads and verifies one header. It returns io.EOF when the stream
// ends cleanly before a header and io.ErrUnexpectedEOF when it ends inside
// one. The caller then reads the payload with Payload.
func (r *Reader) Next() (Header, error) {
	p := r.hdr[:]
	if _, err := io.ReadFull(r.r, p); err != nil {
		return Header{}, err
	}
	if Checksum(p[:15]) != binary.BigEndian.Uint32(p[15:19]) {
		return Header{}, ErrHeader
	}
	h := Header{Kind: p[0], Len: int(binary.BigEndian.Uint32(p[3:7])), CRC: binary.BigEndian.Uint32(p[7:11])}
	if h.Len > r.limit {
		return Header{}, fmt.Errorf("%w: %d bytes over %d", ErrTooLarge, h.Len, r.limit)
	}
	m := int(binary.BigEndian.Uint16(p[1:3]))
	if cap(r.meta) < m {
		r.meta = make([]byte, m)
	}
	h.Meta = r.meta[:m]
	if err := readFull(r.r, h.Meta); err != nil {
		return Header{}, err
	}
	if Checksum(h.Meta) != binary.BigEndian.Uint32(p[11:15]) {
		return Header{}, ErrHeader
	}
	return h, nil
}

// Payload reads h's payload into dst and verifies it against h.CRC. The
// payload fills the destinations in order, so a receiver can scatter one
// payload into several buffers; their lengths must sum to h.Len.
func (r *Reader) Payload(h Header, dst ...[]byte) error {
	return r.PayloadCRCs(h, 0, nil, dst...)
}

// Granules returns how many CRCs PayloadCRCs reports for an n-byte
// destination at the given grain: one per grain bytes, the last granule
// possibly shorter, and one for the whole destination when grain is not
// positive or not below n (an empty destination included).
func Granules(n, grain int) int {
	if grain <= 0 || grain >= n {
		return 1
	}
	return (n + grain - 1) / grain
}

// PayloadCRCs is Payload that also reports, when crcs is not nil, the
// CRC32C of every granule of every destination in order: each destination
// is cut into grain-byte granules (see Granules; a grain of 0 keeps each
// destination whole), so crcs must hold the sum of their Granules. Each
// destination is read whole and then checksummed granule by granule, and
// the payload CRC is the granules' Combine, so a receiver that keeps the
// granules apart gets a verified checksum for each from the one pass. On
// ErrPayload every CRC has still been reported: a receiver that knows what
// each destination should hold can tell which did not.
func (r *Reader) PayloadCRCs(h Header, grain int, crcs []uint32, dst ...[]byte) error {
	n := 0
	for _, d := range dst {
		n += len(d)
	}
	if n != h.Len {
		return fmt.Errorf("frame: %d-byte payload for a %d-byte destination", h.Len, n)
	}
	var crc uint32
	j := 0
	for _, d := range dst {
		if err := readFull(r.r, d); err != nil {
			return err
		}
		g := grain
		if g <= 0 || g > len(d) {
			g = len(d)
		}
		for off := 0; ; off += g {
			part := d[off:min(off+g, len(d))]
			c := Checksum(part)
			if crcs != nil {
				crcs[j], j = c, j+1
			}
			crc = r.comb.Combine(crc, c, len(part))
			if off+g >= len(d) {
				break
			}
		}
	}
	if crc != h.CRC {
		return ErrPayload
	}
	return nil
}

// readFull is io.ReadFull for bytes a verified header promised: running
// out before the first of them is as unexpected as running out midway.
func readFull(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
