package blockserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
)

// cutOnceListener closes the first connection that has read more than
// after bytes, once: with after inside a put's payload, one put dies
// mid-transfer and must be retried on a fresh connection.
type cutOnceListener struct {
	net.Listener
	after int64
	cut   atomic.Bool
}

func (l *cutOnceListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &cutOnceConn{Conn: c, l: l}, nil
}

type cutOnceConn struct {
	net.Conn
	l    *cutOnceListener
	read int64 // only the connection's one serving goroutine reads
}

func (c *cutOnceConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	if c.read > c.l.after && c.l.cut.CompareAndSwap(false, true) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return n, err
}

// TestWriteFilePooledBlocksOutliveTheirPuts proves the write path's buffer
// lifetime rule — a batch's pooled stripe slabs are recycled only once all
// n of its put exchanges have returned. Concurrent WriteFiles of different
// files share the pool, every server delays its reads so puts are slow and
// batches overlap, and one put is cut mid-payload so it is re-sent from
// the same slabs on a retry. Each file's 6 stripes go in batches of 4 and
// 2, so every put carries at least two blocks, and the cut, a block and a
// half into the first put a server reads, lands inside a batched put past
// a block the server has read whole. A slab recycled early would be
// re-encoded by another batch while its put was still sending it: the race
// detector sees the write, and the stored bytes differ from a fresh Encode
// either way.
func TestWriteFilePooledBlocksOutliveTheirPuts(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	n, k := code.N(), code.K()
	blockSize := code.BlockAlign() * 1024
	const cutServer = 4
	var cutter *cutOnceListener
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if i == cutServer {
			cutter = &cutOnceListener{Listener: ln, after: int64(blockSize + blockSize/2)}
			ln = cutter
		}
		in := faultnet.NewInjector()
		in.SetDefault(faultnet.Policy{DelayRead: 200 * time.Microsecond})
		srv := NewServer(code)
		if addrs[i], err = srv.StartListener(in.Wrap(ln)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
	}
	store, err := NewStore(code, addrs, blockSize, WithClientOptions(fastOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const files, stripes = 4, 6
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	datas := make([][]byte, files)
	var wg sync.WaitGroup
	for f := range datas {
		// Sizes differ per file, and none fills its last stripe: the padded
		// scratch is exercised too.
		datas[f] = make([]byte, stripes*k*blockSize-1000*(f+1))
		rand.New(rand.NewSource(int64(90 + f))).Read(datas[f])
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			if _, err := store.WriteFile(ctx, fmt.Sprintf("file%d", f), datas[f]); err != nil {
				t.Errorf("WriteFile file%d: %v", f, err)
			}
		}(f)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if !cutter.cut.Load() {
		t.Fatal("no put was cut: the retry path went unexercised")
	}

	for f, data := range datas {
		padded := make([]byte, stripes*k*blockSize)
		copy(padded, data)
		for st := 0; st < stripes; st++ {
			shards := make([][]byte, k)
			for i := range shards {
				shards[i] = padded[(st*k+i)*blockSize : (st*k+i+1)*blockSize]
			}
			want, err := code.Encode(shards)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				name := BlockName(fmt.Sprintf("file%d", f), st, i)
				var got []byte
				err := store.Pool().WithClient(ctx, addrs[i], func(c *Client) (err error) {
					got, err = c.Get(ctx, name)
					return err
				})
				if err != nil {
					t.Fatalf("Get %s: %v", name, err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("stored block %s differs from a fresh Encode", name)
				}
				Recycle(got)
			}
		}
	}
}

// acceptHookListener calls onAccept for every connection it accepts,
// before the server reads a byte of it.
type acceptHookListener struct {
	net.Listener
	onAccept func()
}

func (l *acceptHookListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.onAccept()
	}
	return c, err
}

// TestPutIsAllOrNothing cuts a four-name put a block and a half into its
// payload: the server has read the first block whole, yet stores nothing —
// its block count, taken as the client's retry connects, is unchanged —
// and the retry then stores all four blocks, each under its own CRC. Only
// the retry is answered.
func TestPutIsAllOrNothing(t *testing.T) {
	const count, size = 4, 16 << 10
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cutter := &cutOnceListener{Listener: raw, after: size + size/2}
	srv := NewServer(nil)
	var held []int64 // the server's block count as each connection is accepted
	var mu sync.Mutex
	addr, err := srv.StartListener(&acceptHookListener{Listener: cutter, onAccept: func() {
		blocks, _, _ := srv.Stats()
		mu.Lock()
		held = append(held, blocks)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	slab := make([]byte, count*size)
	rand.New(rand.NewSource(92)).Read(slab)
	names, blocks := make([]string, count), make([][]byte, count)
	for i := range blocks {
		names[i], blocks[i] = fmt.Sprintf("f/%d/3", i), slab[i*size:(i+1)*size]
	}
	c := NewClient(addr, fastOpts())
	defer c.Close()
	ctx := context.Background()
	puts0 := servedExchanges(opPut)
	if err := c.Puts(ctx, names, blocks, nil, nil); err != nil {
		t.Fatalf("Puts with one cut connection: %v", err)
	}
	if !cutter.cut.Load() {
		t.Fatal("the put was not cut: the retry went unexercised")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(held) != 2 || held[1] != 0 {
		t.Fatalf("block counts at each accept %v, want [0 0]: a cut put stored blocks before its retry", held)
	}
	if n, stored, _ := srv.Stats(); n != count || stored != count*size {
		t.Fatalf("after the retry the server holds %d blocks, %d bytes; want %d, %d", n, stored, count, count*size)
	}
	if got := servedExchanges(opPut) - puts0; got != 1 {
		t.Errorf("%d put exchanges answered, want 1: the cut one is never answered", got)
	}
	for i, name := range names {
		got, err := c.Get(ctx, name)
		if err != nil || !bytes.Equal(got, blocks[i]) {
			t.Fatalf("Get %s: %v, identical %v", name, err, bytes.Equal(got, blocks[i]))
		}
		Recycle(got)
	}
}

// TestWriteFileBatchesPutExchanges counts a write's round trips at the
// servers: an 8 MiB file of 32 stripes at (12,6,10,10) with the
// benchmark's 43,680-byte blocks goes in 8 batches of stripesInFlight
// stripes, one put exchange per server per batch — 96 puts, not one per
// block (384) — and the file reads back identical.
func TestWriteFileBatchesPutExchanges(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startServers(t, code, code.N())
	const blockSize, stripes = 43680, 32
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, stripes*code.K()*blockSize)
	rand.New(rand.NewSource(93)).Read(data)
	ctx := context.Background()
	puts0 := servedExchanges(opPut)
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	if got, want := servedExchanges(opPut)-puts0, int64(code.N()*stripes/stripesInFlight); got != want || want != 96 {
		t.Errorf("an 8 MiB write made %d put exchanges, want %d: one per server per batch", got, want)
	}
	got, _, err := store.ReadFile(ctx, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v, identical %v", err, bytes.Equal(got, data))
	}
}

// TestWriteFileCountsEveryBlockOnTheWire: blockserver_client_bytes_tx_total,
// which the benchmark's write wire metric reads, grows by exactly
// stripes·n·blockSize over a WriteFile — every block of every batched put
// counted once — for a file whose stripes do not fill their last batch
// and whose last stripe is padded.
func TestWriteFileCountsEveryBlockOnTheWire(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := startServers(t, code, code.N())
	blockSize := code.BlockAlign() * 16
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const stripes = 2*stripesInFlight + 3
	data := make([]byte, stripes*code.K()*blockSize-77)
	rand.New(rand.NewSource(94)).Read(data)
	tx0 := cliBytesTx.Value()
	n, err := store.WriteFile(context.Background(), "f", data)
	if err != nil || n != stripes {
		t.Fatalf("WriteFile: %d stripes, %v; want %d", n, err, stripes)
	}
	if got, want := cliBytesTx.Value()-tx0, int64(stripes*code.N()*blockSize); got != want {
		t.Errorf("a %d-stripe write counted %d bytes sent, want stripes·n·blockSize = %d", stripes, got, want)
	}
}

// dialClient dials addr for the length of the test.
func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestAnswersPinTheirBlocks: a server recycles the buffer of a block a put
// replaces or a delete removes into a later put, but only once no answer
// is reading it. One client overwrites and deletes a few blocks in a loop,
// each put landing one of a few known contents, while three others read
// them in range, chunk and verify exchanges. Every name a read lands must
// hold one whole known content (a range's bytes also match the CRC its
// server sent, a chunk is that of a known content) and no verdict may be
// ErrCorrupt: a buffer recycled under an answer would be overwritten while
// the answer is being computed or sent.
func TestAnswersPinTheirBlocks(t *testing.T) {
	code, err := carousel.New(4, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Every write the server makes waits first, so an answer's blocks
	// leave over a window in which the writer puts and deletes again. The
	// race detector sees neither a range answer's writev nor the assembly
	// CRC and GF kernels, so the content checks below must catch a reuse.
	in := faultnet.NewInjector()
	in.SetDefault(faultnet.Policy{DelayWrite: 200 * time.Microsecond})
	srv := NewServer(code)
	addr, err := srv.StartListener(in.Wrap(ln))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	const helper, failed, rounds = 1, 0, 200
	blockSize := code.BlockAlign() * 256
	names := []string{"a", "b", "c", "d"}
	contents := make([][]byte, 3)
	chunks := make([][]byte, len(contents))
	rng := rand.New(rand.NewSource(95))
	for g := range contents {
		contents[g] = make([]byte, blockSize)
		rng.Read(contents[g])
		chunks[g] = make([]byte, code.HelperChunkSize(blockSize))
		if err := code.HelperChunkInto(helper, failed, contents[g], chunks[g]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	w := dialClient(t, addr)
	var done atomic.Bool
	var wg sync.WaitGroup
	read := func(op string, exchange func(c *Client, dst [][]byte, verdicts []error) error, want [][]byte) {
		c, dst, verdicts := dialClient(t, addr), make([][]byte, len(names)), make([]error, len(names))
		for i := range dst {
			dst[i] = make([]byte, len(want[0]))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if err := exchange(c, dst, verdicts); err != nil {
					t.Errorf("%s: %v", op, err)
					return
				}
				for i, v := range verdicts {
					switch {
					case v == nil && !slices.ContainsFunc(want, func(w []byte) bool { return bytes.Equal(dst[i], w) }):
						t.Errorf("%s of %s landed bytes of no content put", op, names[i])
						return
					case v != nil && !errors.Is(v, ErrNotFound):
						t.Errorf("%s of %s: %v", op, names[i], v)
						return
					}
				}
			}
		}()
	}
	read("range", func(c *Client, dst [][]byte, verdicts []error) error {
		return c.Ranges(ctx, names, 0, dst, verdicts)
	}, contents)
	read("chunk", func(c *Client, dst [][]byte, verdicts []error) error {
		return c.Chunks(ctx, names, helper, failed, dst, nil, verdicts)
	}, chunks)
	read("verify", func(c *Client, dst [][]byte, verdicts []error) error {
		return c.Verifies(ctx, names, nil, verdicts)
	}, [][]byte{nil}) // a verify lands nothing
	defer wg.Wait()
	defer done.Store(true)
	blocks := make([][]byte, len(names))
	for r := range rounds {
		for i := range blocks {
			blocks[i] = contents[(r+i)%len(contents)]
		}
		if err := w.Puts(ctx, names, blocks, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Delete(ctx, names[r%len(names)]); err != nil {
			t.Fatal(err)
		}
	}
}

// holdListener's connections hold every Write of at least min bytes until
// release is closed, telling held of the first.
type holdListener struct {
	net.Listener
	min           int
	held, release chan struct{}
}

func (l *holdListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &holdConn{Conn: c, l: l}, nil
}

type holdConn struct {
	net.Conn
	l *holdListener
}

func (c *holdConn) Write(p []byte) (int, error) {
	if len(p) >= c.l.min {
		select {
		case c.l.held <- struct{}{}:
		default:
		}
		<-c.l.release
	}
	return c.Conn.Write(p)
}

// spared reports whether buf is on the server's spare list: it takes every
// spare of buf's size and gives them back, oldest first.
func (s *Server) spared(buf []byte) bool {
	bufs, fresh := s.spares.Take(nil, spareBlocks, len(buf))
	bufs = bufs[:len(bufs)-fresh]
	slices.Reverse(bufs)
	s.spares.Give(bufs...)
	return slices.ContainsFunc(bufs, func(b []byte) bool { return &b[0] == &buf[0] })
}

// TestHeldAnswerKeepsItsBlock: a block deleted while an answer is still
// writing it to its socket keeps its buffer out of the spare list, so the
// put that follows lands elsewhere and the answer's bytes arrive intact;
// once the answer has left, the buffer is spare.
func TestHeldAnswerKeepsItsBlock(t *testing.T) {
	const size = 4096
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hl := &holdListener{Listener: ln, min: size, held: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer(nil)
	addr, err := srv.StartListener(hl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var once sync.Once
	release := func() { once.Do(func() { close(hl.release) }) }
	t.Cleanup(release) // before Close, which waits for the held handler
	ctx := context.Background()
	w, r := dialClient(t, addr), dialClient(t, addr)
	old := bytes.Repeat([]byte("o"), size)
	if err := w.Put(ctx, "x", old); err != nil {
		t.Fatal(err)
	}
	stored := func(name string) []byte {
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		return srv.blocks[name].data
	}
	buf := stored("x")
	var got []byte
	answered := make(chan error, 1)
	go func() {
		var err error
		got, err = r.Get(ctx, "x")
		answered <- err
	}()
	<-hl.held
	if err := w.Delete(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(ctx, "y", bytes.Repeat([]byte("n"), size)); err != nil {
		t.Fatal(err)
	}
	if srv.spared(buf) || &stored("y")[0] == &buf[0] {
		t.Error("the buffer of a deleted block an answer is writing was recycled")
	}
	release()
	if err := <-answered; err != nil || !bytes.Equal(got, old) {
		t.Fatalf("held answer: %v, intact %v", err, bytes.Equal(got, old))
	}
	// The connection serves its next request only once the answer before
	// it has unpinned its blocks.
	if err := r.Verify(ctx, "y"); err != nil {
		t.Fatal(err)
	}
	if !srv.spared(buf) {
		t.Error("the buffer of a deleted block is not spare once its last answer has left")
	}
}
