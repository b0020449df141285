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
// receiver can retain as the content's at-rest checksum.
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
	meta  []byte // grown only to a verified metaLen
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
	n := 0
	for _, d := range dst {
		n += len(d)
	}
	if n != h.Len {
		return fmt.Errorf("frame: %d-byte payload for a %d-byte destination", h.Len, n)
	}
	var crc uint32
	for _, d := range dst {
		if err := readFull(r.r, d); err != nil {
			return err
		}
		crc = crc32.Update(crc, castagnoli, d)
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
