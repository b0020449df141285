package blockserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"carousel/internal/frame"
)

// stringMeta is the request meta a client encoded when a batch held its
// names as a []string, each length-prefixed as the meta was built: the
// golden form of the wire bytes a nameList carries as they are.
func stringMeta(op byte, names []string, args []uint32, recs [][]uint32, traceID, parent uint64) []byte {
	dst := binary.BigEndian.AppendUint16(nil, uint16(len(names)))
	for _, name := range names {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(name)))
		dst = append(dst, name...)
	}
	for _, a := range args {
		dst = binary.BigEndian.AppendUint32(dst, a)
	}
	if op == opPut {
		w := 0
		if len(recs) > 0 {
			w = len(recs[0])
		}
		dst = append(dst, byte(w))
		for _, rec := range recs {
			for _, c := range rec {
				dst = binary.BigEndian.AppendUint32(dst, c)
			}
		}
	}
	if traceID != 0 {
		dst = binary.BigEndian.AppendUint64(dst, traceID)
		dst = binary.BigEndian.AppendUint64(dst, parent)
	}
	return dst
}

// TestNameListMetaIsTheOldMeta: for the same batch, the request meta built
// from names written straight into their wire list — as a Store's stripe
// loop, its writes and its scrubs build them — is byte for byte the meta
// the []string form encoded, for a range list, a chunk list with record
// slots, a put with stripe records, a verify and a delete, traced or not.
func TestNameListMetaIsTheOldMeta(t *testing.T) {
	const file, lo, hi, block = "objects/o17", 98, 131, 11
	var names []string
	var list nameList
	for st := lo; st < hi; st++ {
		names = append(names, BlockName(file, st, block))
		list.addBlock(file, st, block)
	}
	if got := serverLists(file, block+1, lo, hi)[block]; !bytes.Equal(got.wire, list.wire) || got.count != list.count {
		t.Fatalf("server %d's list of a write or scrub batch differs from the loop's", block)
	}
	for i, name := range names {
		if got := string(list.at(i)); got != name {
			t.Fatalf("name %d of the list is %q, want %q", i, got, name)
		}
	}
	m := len(names)
	recs, slots, bufs := make([][]uint32, m), make([][]uint32, m), make([][]byte, m)
	for i := range recs {
		recs[i] = []uint32{uint32(i), 0xdeadbeef, uint32(7 * i)}
		slots[i] = make([]uint32, 0, 3)
		bufs[i] = make([]byte, 64)
	}
	for _, c := range []struct {
		what string
		r    request
		args []uint32
		recs [][]uint32
	}{
		{"range list", request{op: opRange, args: [2]uint32{4096, 8192}, batch: &nameBatch{names: list, bufs: bufs}}, []uint32{4096, 8192}, nil},
		{"chunk list with record slots", request{op: opChunk, args: [2]uint32{3, 11}, batch: &nameBatch{names: list, bufs: bufs, recs: slots}}, []uint32{3, 11}, nil},
		{"put with records", request{op: opPut, batch: &nameBatch{names: list, bufs: bufs, recs: recs}}, nil, recs},
		{"verify list", request{op: opVerify, batch: &nameBatch{names: list}}, nil, nil},
		{"delete list", request{op: opDelete, batch: &nameBatch{names: list}}, nil, nil},
	} {
		for _, trace := range []uint64{0, 0x0123456789abcdef} {
			c.r.trace, c.r.parent = trace, trace>>8
			got, err := c.r.meta(nil)
			if err != nil {
				t.Fatalf("%s: %v", c.what, err)
			}
			if want := stringMeta(c.r.op, names, c.args, c.recs, trace, trace>>8); !bytes.Equal(got, want) {
				t.Errorf("%s, trace %x: meta\n%x\nwant the []string form's\n%x", c.what, trace, got, want)
			}
			if _, err := parseMeta(c.r.op, got); err != nil {
				t.Errorf("%s, trace %x: the server refuses the meta: %v", c.what, trace, err)
			}
		}
	}
}

// TestRefusedNameSendsNothing: an empty name, or one over maxNameLen, in
// any of a client's one-name calls or name lists, or a file whose block
// names pass maxNameLen in a Store's read or write, fails the request
// before anything is dialed or sent.
func TestRefusedNameSendsNothing(t *testing.T) {
	long := strings.Repeat("n", maxNameLen+1)
	var dials atomic.Int64
	opts := fastOpts()
	opts.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	fake := &fakeVectoredConn{}
	connected := NewClient("fake:0", opts)
	connected.conn, connected.fr = fake, frame.NewReader(fake, maxPayload)
	unconnected := NewClient("127.0.0.1:1", opts)
	ctx := context.Background()
	one := func(c *Client, name string) map[string]error {
		buf := make([]byte, 8)
		_, get := c.Get(ctx, name)
		_, chunk := c.Chunk(ctx, name, 0, 1)
		return map[string]error{
			"Get":          get,
			"GetRangeInto": c.GetRangeInto(ctx, name, 0, buf),
			"Chunk":        chunk,
			"Put":          c.Put(ctx, name, buf),
			"Delete":       c.Delete(ctx, name),
			"Verify":       c.Verify(ctx, name),
			"puts":         c.puts(ctx, listOf("ok", name), [][]byte{buf, buf}, nil, nil),
			"ranges":       c.ranges(ctx, listOf(name, "ok"), 0, [][]byte{buf, buf}, make([]error, 2)),
			"chunks":       c.chunks(ctx, listOf("ok", name), 0, 1, [][]byte{buf, buf}, nil, make([]error, 2)),
			"verifies":     c.verifies(ctx, listOf(name), nil, make([]error, 1)),
		}
	}
	for _, c := range []*Client{connected, unconnected} {
		for _, name := range []string{"", long} {
			for call, err := range one(c, name) {
				if err == nil || !strings.Contains(err.Error(), "invalid name length") {
					t.Errorf("%s of a %d-byte name: %v, want the name refused", call, len(name), err)
				}
			}
		}
	}
	if len(fake.vectoredCalls) != 0 || fake.plainWrites != 0 || connected.conn == nil {
		t.Errorf("refused names: %d writes sent, connection kept %v; want none sent, the connection kept", len(fake.vectoredCalls)+fake.plainWrites, connected.conn != nil)
	}

	code := mustCode(t)
	_, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, code.BlockAlign(), withPool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	file := strings.Repeat("f", maxNameLen-3) // its names, file/0/i, pass maxNameLen
	if _, err := store.WriteFile(ctx, file, make([]byte, 10)); err == nil || !strings.Contains(err.Error(), "invalid name length") {
		t.Errorf("a write of a file whose block names pass maxNameLen: %v, want the names refused", err)
	}
	if _, _, err := store.ReadFile(ctx, file, 10); !errors.Is(err, ErrTooFewSurvivors) || !strings.Contains(err.Error(), "invalid name length") {
		t.Errorf("a read of a file whose block names pass maxNameLen: %v, want too few survivors, each refused", err)
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("refused names dialed %d times, want none", n)
	}
}
