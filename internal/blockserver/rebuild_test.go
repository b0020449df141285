package blockserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/faultnet"
	"carousel/internal/frame"
	"carousel/internal/obs"
	"carousel/internal/retry"
)

// byteListener counts every byte its accepted connections carry, both
// ways, into one total.
type byteListener struct {
	net.Listener
	total *atomic.Int64
}

func (l byteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &byteConn{Conn: c, total: l.total}, nil
}

// byteConn counts the bytes a connection reads and writes.
type byteConn struct {
	net.Conn
	total *atomic.Int64
}

func (c *byteConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.total.Add(int64(n))
	return n, err
}

func (c *byteConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.total.Add(int64(n))
	return n, err
}

// TestRecoverCoordinatorMovesNoBlock is the counted claim of the newcomer
// rebuilding its own blocks. A traced RecoverServer over one lap at
// (12,6,10,10), with the benchmark's 43,680-byte blocks, counts every byte
// on the sockets, frame headers and metas included:
//   - the coordinator's sockets carry ≤ 0.01 bytes per rebuilt byte, one
//     rebuild exchange per batch, where they carried every winning chunk
//     and every writeback, 3;
//   - all loopback sockets carry 2 and a little per rebuilt byte, the
//     winning chunks and their metas, where the writeback made it 3; the
//     servers' payloads are exactly the winning chunks;
//   - no put is served: the newcomer checksums each rebuilt byte once, as
//     it decodes it, and stores the block from that pass, where the
//     coordinator checksummed it and the newcomer's ingest did again.
//
// The trace stitches coordinator → server.rebuild → the newcomer's
// store.repair → its fetch → each helper's server.chunk.
func TestRecoverCoordinatorMovesNoBlock(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	n, d := code.N(), code.D()
	blockSize := code.BlockAlign() * (43680 / code.BlockAlign())
	stripes := n - 1
	const failed = 3
	var loopback, coordinator atomic.Int64
	servers, addrs, tracers := make([]*Server, n), make([]string, n), make([]*obs.Tracer, n)
	for i := range servers {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(code)
		tracers[i] = obs.NewTracer(4096)
		srv.SetTracer(tracers[i])
		if addrs[i], err = srv.StartListener(byteListener{raw, &loopback}); err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
	}
	opts := Options{dial: func(ctx context.Context, addr string) (net.Conn, error) {
		var dialer net.Dialer
		c, err := dialer.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &byteConn{Conn: c, total: &coordinator}, nil
	}}
	store, err := NewStore(code, addrs, blockSize, withPool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, stripes*code.K()*blockSize)
	rand.New(rand.NewSource(71)).Read(data)
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)

	loop0, coord0, puts0 := loopback.Load(), coordinator.Load(), servedExchanges(opPut)
	var tx0 int64
	for _, srv := range servers {
		tx0 += srv.bytesTx.Load()
	}
	rctx, root := obs.StartSpan(ctx, "test.recover")
	rep, err := store.RecoverServer(rctx, failed, []FileSpec{{Name: "f", Size: len(data)}})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(servers)
	if rep.BlocksRepaired != stripes {
		t.Fatalf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
	}
	rebuilt := float64(rep.BytesRecovered)
	coord, loop := float64(coordinator.Load()-coord0)/rebuilt, float64(loopback.Load()-loop0)/rebuilt
	t.Logf("socket bytes per rebuilt byte: coordinator %.4f, all loopback %.4f", coord, loop)
	if coord > 0.01 {
		t.Errorf("the coordinator's sockets carried %.4f bytes per rebuilt byte, want ≤ 0.01: no block or chunk", coord)
	}
	if loop < 2 || loop > 2.05 {
		t.Errorf("loopback carried %.4f bytes per rebuilt byte, want the winning chunks' 2 and their metas", loop)
	}
	var tx int64
	for _, srv := range servers {
		tx += srv.bytesTx.Load()
	}
	if tx-tx0 != rep.TrafficBytes || rep.TrafficBytes != int64(stripes*d*code.HelperChunkSize(blockSize)) {
		t.Errorf("the servers sent %d payload bytes and the report counts %d, want the winning chunks' %d", tx-tx0, rep.TrafficBytes, stripes*d*code.HelperChunkSize(blockSize))
	}
	if puts := servedExchanges(opPut) - puts0; puts != 0 {
		t.Errorf("the servers answered %d puts, want none: the newcomer stores what it rebuilds", puts)
	}

	// The stitched trace, and the newcomer's one checksum pass per block.
	spans := func(tr *obs.Tracer, name string, parents map[uint64]bool) map[uint64]bool {
		out := make(map[uint64]bool)
		for _, s := range tr.Spans(root.TraceID()) {
			if s.Name == name && (parents == nil || parents[s.Parent]) {
				out[s.ID] = true
			}
		}
		return out
	}
	rebuilds := spans(obs.DefaultTracer(), "rebuild", nil)
	served := spans(tracers[failed], "server.rebuild", rebuilds)
	engines := spans(tracers[failed], "store.repair", served)
	fetches := spans(tracers[failed], "fetch", engines)
	if len(rebuilds) != 1 || len(served) != 1 || len(engines) != 1 || len(fetches) != 1 {
		t.Fatalf("the trace holds %d coordinator rebuild spans, %d server.rebuild, %d store.repair and %d fetch at the newcomer, want one batch's one each",
			len(rebuilds), len(served), len(engines), len(fetches))
	}
	for i, tr := range tracers {
		if got := len(spans(tr, "server.chunk", fetches)); i != failed && got != 1 {
			t.Errorf("helper %d served %d chunk exchanges under the newcomer's fetch, want 1", i, got)
		}
	}
	checksummed := 0
	for _, s := range tracers[failed].Spans(root.TraceID()) {
		if s.Name == "decode" {
			checksummed += attrInt(s, "crc_bytes")
		}
	}
	if checksummed != int(rep.BytesRecovered) {
		t.Errorf("the newcomer checksummed %d bytes of the blocks it rebuilt, want each once: %d", checksummed, rep.BytesRecovered)
	}
	got, _, err := store.ReadFile(ctx, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: err %v, identical %v", err, bytes.Equal(got, data))
	}
}

// waitIdle waits, at most a second, for every server's handlers to
// return. A server counts its answer's bytes and ends its server.<op> span
// once the answer has left, so the caller can be back first: a test that
// counts either waits here before it does.
func waitIdle(servers []*Server) {
	deadline := time.Now().Add(time.Second)
	for _, srv := range servers {
		for srv.inflight.Load() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// waitInflight waits until srv is handling a request, then runs then.
func waitInflight(srv *Server, then func()) {
	for srv.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	then()
}

// TestRecoverNewcomerKilledMidPass: a newcomer that dies while it rebuilds
// fails its batch, and the pass names the batch's job. A newcomer started
// again at that address rebuilds the whole file on the next pass; asked
// twice for the same batch, it stores the same blocks both times (a
// retried rebuild is idempotent); and once the servers close, no goroutine
// is left.
func TestRecoverNewcomerKilledMidPass(t *testing.T) {
	base := runtime.NumGoroutine()
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	n, d := code.N(), code.D()
	blockSize := code.BlockAlign() * 8
	stripes := 2 * (n - 1)
	const failed = 3
	servers, addrs, injectors := startFaultServers(t, code, n)
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()), WithHedgeDelay(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, stripes*code.K()*blockSize)
	rand.New(rand.NewSource(72)).Read(data)
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)
	files := []FileSpec{{Name: "f", Size: len(data)}}

	// Every helper answers late, so the newcomer is mid-batch when it dies.
	for i, in := range injectors {
		if i != failed {
			in.SetDefault(faultnet.Policy{DelayWrite: 100 * time.Millisecond})
		}
	}
	go waitInflight(servers[failed], func() { servers[failed].Close() })
	rep, err := store.RecoverServer(ctx, failed, files)
	if err == nil {
		t.Fatal("a pass whose newcomer died succeeded")
	}
	if !strings.Contains(err.Error(), "f stripe ") || !strings.Contains(err.Error(), fmt.Sprintf(" block %d: ", failed)) {
		t.Errorf("the failed pass says %q, want its batch's job named", err)
	}
	if rep.BlocksRepaired == stripes {
		t.Errorf("a pass whose newcomer died reports every block repaired")
	}
	for _, in := range injectors {
		in.SetDefault(faultnet.Policy{})
	}

	again := NewServer(code)
	if _, err := again.Start(addrs[failed]); err != nil {
		t.Skipf("cannot listen on %s again: %v", addrs[failed], err)
	}
	defer again.Close()
	if rep, err = store.RecoverServer(ctx, failed, files); err != nil || rep.BlocksRepaired != stripes {
		t.Fatalf("the pass on the restarted newcomer: %v, %d of %d blocks", err, rep.BlocksRepaired, stripes)
	}
	c, err := Dial(addrs[failed])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := make([][]byte, n-1)
	for st := range want {
		if want[st], err = c.Get(ctx, BlockName("f", st, failed)); err != nil {
			t.Fatal(err)
		}
	}
	req := &rebuildRequest{File: "f", Stripes: make([]int, n-1), Failed: failed, BlockSize: blockSize, Addrs: addrs, Hedge: time.Second}
	for st := range req.Stripes {
		req.Stripes[st] = st
	}
	for round := range 2 {
		res, err := c.rebuild(ctx, req)
		if err != nil {
			t.Fatalf("rebuild %d: %v", round, err)
		}
		for i, e := range res.Errs {
			if e != nil || res.Traffic[i] != d*code.HelperChunkSize(blockSize) {
				t.Fatalf("rebuild %d, stripe %d: %v, %d bytes of chunks", round, i, e, res.Traffic[i])
			}
		}
		for st := range want {
			if got, err := c.Get(ctx, BlockName("f", st, failed)); err != nil || !bytes.Equal(got, want[st]) {
				t.Fatalf("rebuild %d, stripe %d: the block differs from the first rebuild's (%v)", round, st, err)
			}
		}
	}
	got, _, err := store.ReadFile(ctx, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: err %v, identical %v", err, bytes.Equal(got, data))
	}
	store.Close()
	c.Close()
	again.Close()
	for _, srv := range servers {
		srv.Close()
	}
	waitGoroutines(t, base)
}

// TestRepairHelperKilledMidRebuild: a helper that dies while the newcomer
// waits for its chunk is struck there, and one spare from the survivor
// ring takes its place, as in TestFaultMatrixRepair: the block is rebuilt
// from exactly d chunks.
func TestRepairHelperKilledMidRebuild(t *testing.T) {
	code, err := carousel.New(14, 10, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 16
	data := make([]byte, code.K()*blockSize)
	rand.New(rand.NewSource(73)).Read(data)
	servers, addrs, injectors := startFaultServers(t, code, code.N())
	store, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()), WithHedgeDelay(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	const failed, victim = 6, 2 // among stripe 0's first d helpers
	deleteBlock(t, addrs[failed], BlockName("f", 0, failed))
	injectors[victim].SetDefault(faultnet.Policy{DelayWrite: 200 * time.Millisecond})
	go waitInflight(servers[victim], func() { servers[victim].Close() })

	promoted0 := mSparePromotions.Value()
	rctx, cancel := context.WithTimeout(ctx, 8*time.Second)
	defer cancel()
	traffic, err := store.Repair(rctx, "f", 0, failed)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if spares := mSparePromotions.Value() - promoted0; spares < 1 {
		t.Errorf("store_spare_promotions_total moved by %d, want a spare for the killed helper", spares)
	}
	if want := code.D() * code.HelperChunkSize(blockSize); traffic != want {
		t.Errorf("repair traffic = %d, want optimal %d", traffic, want)
	}
	got, _, err := store.ReadFile(ctx, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the repair: err %v, identical %v", err, bytes.Equal(got, data))
	}
}

// TestRecoverBlackholedNewcomer: a newcomer that swallows its rebuild
// requests costs the pass one IO timeout per attempt, as any exchange
// does, not a hang: RecoverServer returns ErrTimeout within attempts × IO
// timeout.
func TestRecoverBlackholedNewcomer(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 8
	stripes := 2 * (code.N() - 1)
	const failed = 5
	_, addrs, injectors := startFaultServers(t, code, code.N())
	opts := Options{DialTimeout: time.Second, IOTimeout: 500 * time.Millisecond, Retry: retry.Policy{Attempts: 2, Base: 5 * time.Millisecond, Max: 5 * time.Millisecond}}
	store, err := NewStore(code, addrs, blockSize, withPool(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, stripes*code.K()*blockSize)
	rand.New(rand.NewSource(74)).Read(data)
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)
	injectors[failed].SetDefault(faultnet.Policy{Blackhole: true})
	defer injectors[failed].SetDefault(faultnet.Policy{})

	t0 := time.Now()
	_, err = store.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: len(data)}})
	elapsed := time.Since(t0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("a pass against a black-holed newcomer: %v, want ErrTimeout", err)
	}
	if most := time.Duration(opts.Retry.Attempts)*opts.IOTimeout + 500*time.Millisecond; elapsed > most {
		t.Errorf("the pass took %v, want about attempts × IO timeout, under %v", elapsed, most)
	}
}

// replyConn is a streamConn that keeps the server's answers.
type replyConn struct {
	streamConn
	out bytes.Buffer
}

func (c *replyConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// TestRepairRefusedByServerNotServing: a server that was never started
// answers a well-formed rebuild statusError before it checks a client out
// of its pool, so it dials nobody — which is why no input to
// FuzzServeConn, which drives the loop of a server never started, can make
// it dial. A closed one checks none out either, but answers nothing: it
// closes the connection, so the coordinator retries on a fresh one, to
// whatever server now listens at the address.
func TestRepairRefusedByServerNotServing(t *testing.T) {
	code, err := carousel.New(4, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	req := &rebuildRequest{File: "f", Stripes: []int{0, 1}, Failed: 1, BlockSize: code.BlockAlign() * 4,
		Addrs: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"}}
	request := frame.Header{Kind: opRebuild, Meta: appendRebuild(nil, req, time.Second, 0, 0)}.Append(nil)
	closed := NewServer(code)
	if _, err := closed.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	closed.Close()
	for name, srv := range map[string]*Server{"never started": NewServer(code), "closed": closed} {
		conn := &replyConn{streamConn: streamConn{r: bytes.NewReader(request)}}
		srv.serveConn(conn)
		answered := conn.out.Len()
		h, err := frame.NewReader(&conn.out, maxPayload).Next()
		switch {
		case srv == closed && answered != 0:
			t.Errorf("%s: answered %d bytes (status %d), want a closed connection and no answer", name, answered, h.Kind)
		case srv != closed && (err != nil || h.Kind != statusError):
			t.Errorf("%s: answered status %d (%v), want statusError", name, h.Kind, err)
		}
		if dials := srv.pool.DialCounts(); len(dials) != 0 {
			t.Errorf("%s: checked out clients for its helpers: %v", name, dials)
		}
	}
}

// TestRebuildMetaRoundTrip: what appendRebuild encodes, parseMeta decodes
// to the same request — file, stripes, failed index, block size,
// addresses and hedge — with the same budget and trace context, and the
// settings tail is the hedge alone. A meta cut short inside its hedge or
// its budget is refused, traced or not.
func TestRebuildMetaRoundTrip(t *testing.T) {
	req := &rebuildRequest{File: "dir/f", Stripes: []int{0, 7, 1<<32 - 1}, Failed: 2, BlockSize: 4096,
		Addrs: []string{"127.0.0.1:1", "10.0.0.2:7000", "[::1]:9", "h:4"}, Hedge: 1500 * time.Microsecond}
	const budget = 3 * time.Second
	if rebuildSettingsLen != 4 {
		t.Errorf("the settings tail is %d bytes, want the 4-byte hedge", rebuildSettingsLen)
	}
	for _, trace := range [][2]uint64{{0, 0}, {11, 12}} {
		meta := appendRebuild(nil, req, budget, trace[0], trace[1])
		m, err := parseMeta(opRebuild, meta)
		if err != nil {
			t.Fatalf("trace %v: %v", trace, err)
		}
		if got := m.rb.req; got.File != req.File || !slices.Equal(got.Stripes, req.Stripes) || got.Failed != req.Failed ||
			got.BlockSize != req.BlockSize || !slices.Equal(got.Addrs, req.Addrs) || got.Hedge != req.Hedge {
			t.Errorf("trace %v: decoded %+v, want %+v", trace, got, *req)
		}
		if m.rb.budget != budget || m.trace != trace[0] || m.parent != trace[1] || string(m.name) != req.File {
			t.Errorf("trace %v: budget %v, trace %d/%d, name %q", trace, m.rb.budget, m.trace, m.parent, m.name)
		}
		end := len(meta)
		if trace[0] != 0 {
			end -= traceLen
		}
		for cut := end - rebuildSettingsLen - 4; cut < end; cut++ {
			short := slices.Concat(meta[:cut], meta[end:])
			if _, err := parseMeta(opRebuild, short); err == nil {
				t.Errorf("trace %v: a meta cut at byte %d of its %d-byte hedge and budget was accepted", trace, cut-(end-8), 8)
			}
		}
	}
}

// TestEveryRebuildHeaderBitIsChecked flips each bit of a rebuild request's
// header and meta in turn: the newcomer acts on none of them — it closes
// the connection, having stored nothing — and the same request sent
// again rebuilds the block.
func TestEveryRebuildHeaderBitIsChecked(t *testing.T) {
	code, err := carousel.New(4, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 4
	servers, addrs := startServers(t, code, code.N())
	store, err := NewStore(code, addrs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, code.K()*blockSize)
	rand.New(rand.NewSource(75)).Read(data)
	ctx := context.Background()
	if _, err := store.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	const failed = 1
	name := BlockName("f", 0, failed)
	newcomer := servers[failed]
	stored := func() (storedBlock, bool) {
		newcomer.mu.RLock()
		defer newcomer.mu.RUnlock()
		b, ok := newcomer.blocks[name]
		return b, ok
	}
	want, _ := stored()
	opts := Options{DialTimeout: 2 * time.Second, IOTimeout: 3 * time.Second, Retry: retry.Policy{Attempts: 1}}
	req := &rebuildRequest{File: "f", Stripes: []int{0}, Failed: failed, BlockSize: blockSize, Addrs: addrs, Hedge: time.Second}
	hdr := frame.HeaderLen + len(appendRebuild(nil, req, 0, 0, 0))
	for b := 0; b < 8*hdr; b++ {
		deleteBlock(t, addrs[failed], name)
		conn, err := net.Dial("tcp", addrs[failed])
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(addrs[failed], opts)
		fc := &flipConn{Conn: conn, bit: b}
		c.conn, c.fr = fc, frame.NewReader(fc, maxPayload)
		if _, err := c.rebuild(ctx, req); err == nil {
			t.Errorf("bit %d: a damaged rebuild header was acted on", b)
		}
		if _, ok := stored(); ok {
			t.Fatalf("bit %d: a refused rebuild stored the block", b)
		}
		res, err := c.rebuild(ctx, req)
		if err != nil || res.Errs[0] != nil {
			t.Fatalf("bit %d: retry: %v, %v", b, err, res)
		}
		if got, _ := stored(); !bytes.Equal(got.data, want.data) || !slices.Equal(got.crcs, want.crcs) || !slices.Equal(got.rec, want.rec) {
			t.Fatalf("bit %d: the rebuilt block or its checksums differ from the block first put", b)
		}
		c.Close()
	}
}

// TestRecoverOneNewcomerForTwoHedgesAtOnce: two coordinators with
// different hedge delays rebuild the same newcomer's blocks at once, each
// one's rebuilds running under its own hedge over the newcomer's one
// pool. Both passes rebuild every block, and once the newcomer closes, it
// has no connection or goroutine left.
func TestRecoverOneNewcomerForTwoHedgesAtOnce(t *testing.T) {
	code, err := carousel.New(12, 6, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 8
	stripes := 2 * (code.N() - 1)
	const failed = 4
	servers, addrs := startServers(t, code, code.N())
	base := runtime.NumGoroutine()
	data := make([]byte, stripes*code.K()*blockSize)
	rand.New(rand.NewSource(76)).Read(data)
	stores := make([]*Store, 2)
	for i := range stores {
		if stores[i], err = NewStore(code, addrs, blockSize, WithHedgeDelay(time.Duration(i+1)*time.Second)); err != nil {
			t.Fatal(err)
		}
		defer stores[i].Close()
	}
	ctx := context.Background()
	if _, err := stores[0].WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	files := []FileSpec{{Name: "f", Size: len(data)}}
	for range 3 {
		deleteServerBlocks(t, addrs[failed], "f", stripes, failed)
		errs := make([]error, len(stores))
		done := make(chan int)
		for i, st := range stores {
			go func() {
				rep, err := st.RecoverServer(ctx, failed, files)
				if err == nil && rep.BlocksRepaired != stripes {
					err = fmt.Errorf("repaired %d blocks, want %d", rep.BlocksRepaired, stripes)
				}
				errs[i] = err
				done <- i
			}()
		}
		<-done
		<-done
		for i, err := range errs {
			if err != nil {
				t.Fatalf("coordinator %d: %v", i, err)
			}
		}
	}
	got, _, err := stores[1].ReadFile(ctx, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: err %v, identical %v", err, bytes.Equal(got, data))
	}
	for _, st := range stores {
		st.Close()
	}
	servers[failed].Close()
	waitGoroutines(t, base-1)
}

// startCountingServers starts n servers, each counting the connections it
// accepts.
func startCountingServers(t *testing.T, code *carousel.Code, n int) ([]*Server, []string, []*countingListener) {
	t.Helper()
	servers, addrs, counts := make([]*Server, n), make([]string, n), make([]*countingListener, n)
	for i := range servers {
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = &countingListener{Listener: raw}
		servers[i] = NewServer(code)
		if addrs[i], err = servers[i].StartListener(counts[i]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { servers[i].Close() })
	}
	return servers, addrs, counts
}

// TestRecoverNewcomerDialsItsHelpersOnce: a newcomer rebuilds over one
// pool for its life, so two coordinators that list the same helpers in
// different orders, with different hedge delays, recover it in turn
// without its dialing any helper again after the first pass.
func TestRecoverNewcomerDialsItsHelpersOnce(t *testing.T) {
	code, err := carousel.New(6, 3, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 4
	stripes := code.N() - 1 // one ring lap: one batch, one exchange per helper
	const failed = 2
	_, addrs, counts := startCountingServers(t, code, code.N())
	// The second store keeps the newcomer at its index and lists the
	// helpers in reverse.
	reversed := slices.Clone(addrs)
	slices.Reverse(reversed)
	i := slices.Index(reversed, addrs[failed])
	reversed[i], reversed[failed] = reversed[failed], reversed[i]
	ctx := context.Background()
	var files [2][]FileSpec
	stores := make([]*Store, 2)
	for k, order := range [][]string{addrs, reversed} {
		if stores[k], err = NewStore(code, order, blockSize, WithHedgeDelay(time.Duration(k+1)*time.Second)); err != nil {
			t.Fatal(err)
		}
		defer stores[k].Close()
		data := make([]byte, stripes*code.K()*blockSize)
		rand.New(rand.NewSource(int64(77 + k))).Read(data)
		name := fmt.Sprintf("f%d", k)
		if _, err := stores[k].WriteFile(ctx, name, data); err != nil {
			t.Fatal(err)
		}
		files[k] = []FileSpec{{Name: name, Size: len(data)}}
	}
	accepts := func() []int64 {
		var a []int64
		for i, l := range counts {
			if i != failed {
				a = append(a, l.accepts.Load())
			}
		}
		return a
	}
	var after []int64
	for pass := range 4 {
		k := pass % 2
		deleteServerBlocks(t, addrs[failed], files[k][0].Name, stripes, failed)
		before := accepts()
		rep, err := stores[k].RecoverServer(ctx, failed, files[k])
		if err != nil || rep.BlocksRepaired != stripes {
			t.Fatalf("pass %d: err %v, report %+v", pass, err, rep)
		}
		switch now := accepts(); {
		case pass == 0 && slices.Equal(now, before):
			t.Fatal("the first pass dialed no helper")
		case pass > 0 && !slices.Equal(now, after):
			t.Errorf("pass %d (store %d): helpers had accepted %v connections, %v after the first pass", pass, k, now, after)
		default:
			after = now
		}
	}
}

// TestRecoverOverABorrowedPool: a Store given a pool with WithPool runs
// over it and leaves it open when it closes, so the pool still serves,
// and a second Store over it reads on the connections the first one
// parked — no dial — and recovers a server over them.
func TestRecoverOverABorrowedPool(t *testing.T) {
	code, err := carousel.New(6, 3, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := code.BlockAlign() * 4
	stripes := code.N() - 1
	const failed = 2
	_, addrs := startServers(t, code, code.N())
	pool := NewPool(addrs, PoolOptions{Client: fastOpts()})
	defer pool.Close()
	first, err := NewStore(code, addrs, blockSize, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, stripes*code.K()*blockSize)
	rand.New(rand.NewSource(78)).Read(data)
	ctx := context.Background()
	if _, err := first.WriteFile(ctx, "f", data); err != nil {
		t.Fatal(err)
	}
	first.Close()
	if first.Pool() != pool {
		t.Fatal("the store does not run over the pool it was given")
	}
	err = pool.WithClient(ctx, addrs[0], func(c *Client) error {
		_, err := c.Get(ctx, BlockName("f", 0, 0))
		return err
	})
	if err != nil {
		t.Fatalf("the pool after its borrower closed: %v", err)
	}

	second, err := NewStore(code, addrs, blockSize, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	before := second.Pool().DialCounts()
	got, _, err := second.ReadFile(ctx, "f", len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read by the second store: err %v, identical %v", err, bytes.Equal(got, data))
	}
	if d := dialsSince(second.Pool(), before); d != nil {
		t.Errorf("the second store's read dialed %v, want the first store's parked connections", d)
	}
	deleteServerBlocks(t, addrs[failed], "f", stripes, failed)
	if rep, err := second.RecoverServer(ctx, failed, []FileSpec{{Name: "f", Size: len(data)}}); err != nil || rep.BlocksRepaired != stripes {
		t.Fatalf("recovery over the borrowed pool: err %v, report %+v", err, rep)
	}
	if got, _, err = second.ReadFile(ctx, "f", len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after the recovery: err %v, identical %v", err, bytes.Equal(got, data))
	}
}

// TestRepairRefusedForMisalignedBlockSize: a rebuild of blocks whose size
// is not a multiple of the code's BlockAlign, which NewStore refuses, is
// answered statusError, once (the client does not retry a refusal),
// before the newcomer dials any helper.
func TestRepairRefusedForMisalignedBlockSize(t *testing.T) {
	code, err := carousel.New(4, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if code.BlockAlign() == 1 {
		t.Fatal("every block size is aligned to this code")
	}
	const failed = 1
	_, addrs, counts := startCountingServers(t, code, code.N())
	c := NewClient(addrs[failed], fastOpts())
	defer c.Close()
	req := &rebuildRequest{File: "f", Stripes: []int{0}, Failed: failed, BlockSize: code.BlockAlign()*4 + 1, Addrs: addrs}
	refused0 := srvRPCCounter(opRebuild, statusError).Value()
	if _, err := c.rebuild(context.Background(), req); !errors.Is(err, ErrRemote) {
		t.Fatalf("rebuild of %d-byte blocks: %v, want ErrRemote", req.BlockSize, err)
	}
	if got := srvRPCCounter(opRebuild, statusError).Value() - refused0; got != 1 {
		t.Errorf("the server refused %d rebuilds, want 1: an in-band refusal is not retried", got)
	}
	for i, l := range counts {
		if n := l.accepts.Load(); i != failed && n != 0 {
			t.Errorf("helper %d accepted %d connections", i, n)
		}
	}
}
