package blockserver

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
)

// cutOnceListener closes the first connection that has read more than
// after bytes, once: with after inside a block payload, one Put dies
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
// lifetime rule — a stripe's pooled blocks are recycled only once all n of
// its Puts have returned. Concurrent WriteFiles of different files share
// the pool, every server delays its reads so Puts are slow and stripes
// overlap, and one Put is cut mid-payload so it is re-sent from the same
// block on a retry. A block recycled early would be re-encoded by another
// stripe while its Put was still sending it: the race detector sees the
// write, and the stored bytes differ from a fresh Encode either way.
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
			cutter = &cutOnceListener{Listener: ln, after: int64(blockSize / 2)}
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
		t.Fatal("no Put was cut: the retry path went unexercised")
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
