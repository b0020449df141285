package master

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/obs"
	"carousel/internal/retry"
)

// testCode is a small carousel code for cluster tests: 4 servers, any 2
// decode, 3 helpers per repair.
func testCode(t *testing.T) *carousel.Code {
	t.Helper()
	code, err := carousel.New(4, 2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// fastClientOpts are block-path client options scaled for localhost.
func fastClientOpts() blockserver.Options {
	return blockserver.Options{
		DialTimeout: 2 * time.Second,
		IOTimeout:   2 * time.Second,
		Retry:       retry.Policy{Attempts: 2, Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	}
}

// fastMasterConfig is a detector tuned for test time: beat every 25ms,
// suspect after 50ms of silence, dead 80ms later, rebuild 20ms after
// that — failure to repair-start in well under a second.
func fastMasterConfig(code *carousel.Code) Config {
	opts := fastClientOpts()
	return Config{
		Code:              code,
		HeartbeatInterval: 25 * time.Millisecond,
		MissLimit:         2,
		Grace:             80 * time.Millisecond,
		RebuildHold:       20 * time.Millisecond,
		FlapWindow:        time.Minute,
		ClientOptions:     &opts,
	}
}

// fastRetry keeps heartbeat reconnection snappy in tests.
func fastRetry() retry.Policy {
	return retry.Policy{Attempts: 1 << 30, Base: 5 * time.Millisecond, Max: 25 * time.Millisecond, Multiplier: 2}
}

// startServers launches n blockservers and returns them with their
// addresses.
func startServers(t *testing.T, code *carousel.Code, n int) ([]*blockserver.Server, []string) {
	t.Helper()
	servers := make([]*blockserver.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := blockserver.NewServer(code)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = srv, addr
		t.Cleanup(func() { srv.Close() })
	}
	return servers, addrs
}

// startHeartbeat launches a daemon-style heartbeater for one server.
func startHeartbeat(t *testing.T, masterAddr string, srv *blockserver.Server, addr string) *Heartbeater {
	t.Helper()
	hb := NewHeartbeater(HeartbeatConfig{
		Master: masterAddr,
		Addr:   addr,
		Info: func() NodeInfo {
			blocks, bytesStored, corrupt := srv.Stats()
			return NodeInfo{Addr: addr, Blocks: blocks, BlockBytes: bytesStored, CorruptServes: corrupt}
		},
		Retry: fastRetry(),
	})
	hb.Start()
	return hb
}

// waitMembers polls until want members are in the given state.
func waitMembers(t *testing.T, m *Master, state string, want int) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool {
		n := 0
		for _, mem := range m.Status().Members {
			if mem.State == state {
				n++
			}
		}
		return n >= want
	}, fmt.Sprintf("%d members %s", want, state))
}

// findTask returns the first task of the class, or nil.
func findTask(cs *ClusterStatus, class TaskClass) *TaskStatus {
	for i := range cs.Tasks {
		if cs.Tasks[i].Class == string(class) {
			return &cs.Tasks[i]
		}
	}
	return nil
}

// TestMasterSelfHealing is the acceptance test: a real-TCP cluster where
// SIGKILLing one blockserver leads — with zero manual repair calls — to
// the master detecting the death, rebuilding the lost blocks onto a
// spare through the configured bandwidth budget, and serving
// byte-identical reads from the healed placement, goroutine-leak-free.
func TestMasterSelfHealing(t *testing.T) {
	base := runtime.NumGoroutine()
	code := testCode(t)
	blockSize := code.BlockAlign() * 8
	cfg := fastMasterConfig(code)
	// A visible but small budget of four stripe-repairs a second: the
	// task's four repairs sleep ~1s in the throttle between them — visible
	// in the wait counter without stalling the test.
	repairBytes := int64(code.D()*code.HelperChunkSize(blockSize) + blockSize)
	cfg.RecoverBandwidth = 4 * repairBytes
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// n data servers plus one empty spare the rebuild should land on.
	servers, addrs := startServers(t, code, code.N()+1)
	hbs := make([]*Heartbeater, len(servers))
	for i := range servers {
		hbs[i] = startHeartbeat(t, m.Addr(), servers[i], addrs[i])
	}
	waitMembers(t, m, "alive", code.N()+1)

	// Write through the data-plane store, register placements via the real
	// TCP control protocol.
	ctl := NewClient(m.Addr(), &ClientOptions{DialTimeout: time.Second, IOTimeout: 2 * time.Second})
	defer ctl.Close()
	store, err := blockserver.NewStore(code, addrs[:code.N()], blockSize, blockserver.WithClientOptions(fastClientOpts()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	files := map[string][]byte{}
	for _, name := range []string{"alpha", "beta"} {
		data := make([]byte, 2*code.K()*blockSize) // two stripes
		rng.Read(data)
		if _, err := store.WriteFile(context.Background(), name, data); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Place(PlaceRequest{Name: name, Size: len(data), BlockSize: blockSize, Addrs: addrs[:code.N()]}); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	store.Close()

	throttleNS := obs.Default().Counter("store_recover_throttle_wait_ns_total")
	throttleBefore := throttleNS.Value()

	// SIGKILL server 1: no deregistration, no drain — just gone.
	failedIdx := 1
	failedAddr := addrs[failedIdx]
	hbs[failedIdx].Abort()
	servers[failedIdx].Close()

	// The master must walk it to dead and finish an automatic rebuild.
	waitFor(t, 15*time.Second, func() bool {
		task := findTask(m.Status(), ClassRecover)
		return task != nil && task.State == TaskDone
	}, "automatic recovery to complete")

	st := m.Status()
	if mem := st.Member(failedAddr); mem == nil || mem.State != "dead" {
		t.Fatalf("killed server state: %+v", mem)
	}
	task := findTask(st, ClassRecover)
	if task.Server != failedAddr || task.Items != len(files) || task.Checkpoint != len(files) {
		t.Fatalf("recovery task: %+v", task)
	}
	wantBlocks := int64(0)
	for _, data := range files {
		wantBlocks += int64(len(data) / (code.K() * blockSize)) // one lost block per stripe
	}
	if task.BlocksRepaired != wantBlocks {
		t.Fatalf("blocks repaired = %d, want %d", task.BlocksRepaired, wantBlocks)
	}
	if got := throttleNS.Value(); got <= throttleBefore {
		t.Error("recovery ran unthrottled: bandwidth budget not applied")
	}

	// Placements must have the spare substituted at the failed index, and
	// reads through the healed placement must be byte-identical.
	spare := addrs[code.N()]
	for name, want := range files {
		rep, err := ctl.Place(PlaceRequest{Name: name}) // idempotent lookup
		if err != nil {
			t.Fatal(err)
		}
		if rep.Addrs[failedIdx] != spare {
			t.Fatalf("%s placement[%d] = %s, want spare %s", name, failedIdx, rep.Addrs[failedIdx], spare)
		}
		rs, err := blockserver.NewStore(code, rep.Addrs, rep.BlockSize, blockserver.WithClientOptions(fastClientOpts()))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rs.ReadFile(context.Background(), name, rep.Size)
		rs.Close()
		if err != nil {
			t.Fatalf("reading %s after self-heal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: healed read differs from original", name)
		}
	}

	// Tear down in dependency order and require every goroutine gone.
	ctl.Close()
	m.Close()
	for i, hb := range hbs {
		if i != failedIdx {
			hb.Stop()
		}
	}
	for _, srv := range servers {
		srv.Close()
	}
	waitGoroutines(t, base)
}

// TestRecoverBudgetIsPerTask: the recovery bandwidth budget paces a task,
// not each of its files. A task over N one-stripe files at R repairs/s
// must take at least about (N−1)/R: a throttle that handed every file a
// full bucket would let each one-stripe item through unpaced.
func TestRecoverBudgetIsPerTask(t *testing.T) {
	code := testCode(t)
	blockSize := code.BlockAlign() * 8
	const files, repairsPerSec = 10, 20
	cfg := fastMasterConfig(code)
	cfg.RecoverBandwidth = repairsPerSec * int64(code.D()*code.HelperChunkSize(blockSize)+blockSize)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	servers, addrs := startServers(t, code, code.N()+1)
	hbs := make([]*Heartbeater, len(servers))
	for i := range servers {
		hbs[i] = startHeartbeat(t, m.Addr(), servers[i], addrs[i])
	}
	defer func() {
		for _, hb := range hbs[1:] {
			hb.Abort()
		}
	}()
	waitMembers(t, m, "alive", code.N()+1)

	ctl := NewClient(m.Addr(), &ClientOptions{DialTimeout: time.Second, IOTimeout: 2 * time.Second})
	defer ctl.Close()
	store, err := blockserver.NewStore(code, addrs[:code.N()], blockSize, blockserver.WithClientOptions(fastClientOpts()))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, code.K()*blockSize) // one stripe
	rand.New(rand.NewSource(17)).Read(data)
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("one%d", i)
		if _, err := store.WriteFile(context.Background(), name, data); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Place(PlaceRequest{Name: name, Size: len(data), BlockSize: blockSize, Addrs: addrs[:code.N()]}); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()

	// A clean stop leaves: the move-off is scheduled on the next tick.
	start := time.Now()
	hbs[0].Stop()
	waitFor(t, 15*time.Second, func() bool {
		task := findTask(m.Status(), ClassRecover)
		return task != nil && task.State == TaskDone
	}, "drain-triggered recovery")
	elapsed := time.Since(start)
	if task := findTask(m.Status(), ClassRecover); task.BlocksRepaired != files {
		t.Fatalf("blocks repaired = %d, want %d", task.BlocksRepaired, files)
	}
	if min := time.Duration(float64(files-1) / repairsPerSec / 2 * float64(time.Second)); elapsed < min {
		t.Fatalf("%d one-stripe files at %d repairs/s recovered in %v, want >= %v", files, repairsPerSec, elapsed, min)
	}
}

// TestMasterRestartResume: a master killed mid-recovery must, on restart
// from its journal, resume the pass at its checkpoint rather than
// restarting it — proven by the final BlocksRepaired matching the failure
// cost exactly (a restart-from-zero would double-repair and overcount).
func TestMasterRestartResume(t *testing.T) {
	code := testCode(t)
	blockSize := code.BlockAlign() * 8
	dir := t.TempDir()
	cfg := fastMasterConfig(code)
	cfg.DataDir = dir
	// Throttle hard enough that each file takes long enough to catch the
	// pass mid-flight: ~2 stripes of block+chunk bytes per item.
	cfg.RecoverBandwidth = int64(8 * blockSize)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	masterAddr := m.Addr()

	servers, addrs := startServers(t, code, code.N()+1)
	hbs := make([]*Heartbeater, len(servers))
	for i := range servers {
		hbs[i] = startHeartbeat(t, masterAddr, servers[i], addrs[i])
	}
	defer func() {
		for _, hb := range hbs {
			if hb != nil {
				hb.Abort()
			}
		}
	}()
	waitMembers(t, m, "alive", code.N()+1)

	ctl := NewClient(masterAddr, &ClientOptions{DialTimeout: time.Second, IOTimeout: 2 * time.Second})
	defer ctl.Close()
	store, err := blockserver.NewStore(code, addrs[:code.N()], blockSize, blockserver.WithClientOptions(fastClientOpts()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	names := []string{"f0", "f1", "f2", "f3"}
	files := map[string][]byte{}
	stripes := 2
	for _, name := range names {
		data := make([]byte, stripes*code.K()*blockSize)
		rng.Read(data)
		if _, err := store.WriteFile(context.Background(), name, data); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Place(PlaceRequest{Name: name, Size: len(data), BlockSize: blockSize, Addrs: addrs[:code.N()]}); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	store.Close()

	// Kill a data server and wait for the pass to be partially done: at
	// least one item checkpointed, not all.
	failedIdx := 2
	hbs[failedIdx].Abort()
	hbs[failedIdx] = nil
	servers[failedIdx].Close()
	var ckptAtKill int
	waitFor(t, 15*time.Second, func() bool {
		task := findTask(m.Status(), ClassRecover)
		if task == nil {
			return false
		}
		ckptAtKill = task.Checkpoint
		return task.Checkpoint >= 1
	}, "recovery to pass its first checkpoint")
	// Kill the master mid-pass. Workers are canceled; the journal keeps
	// the checkpoint.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if ckptAtKill >= len(names) {
		t.Skipf("recovery finished (%d/%d) before the master could be killed mid-pass", ckptAtKill, len(names))
	}

	// Restart from the same journal on the same address.
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Start(masterAddr); err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	waitFor(t, 20*time.Second, func() bool {
		task := findTask(m2.Status(), ClassRecover)
		return task != nil && task.State == TaskDone
	}, "resumed recovery to complete")

	st := m2.Status()
	recovers := 0
	for _, task := range st.Tasks {
		if task.Class == string(ClassRecover) {
			recovers++
		}
	}
	if recovers != 1 {
		t.Fatalf("%d recovery tasks after restart, want 1 (no duplicate scheduling)", recovers)
	}
	task := findTask(st, ClassRecover)
	wantBlocks := int64(len(names) * stripes) // one lost block per stripe
	if task.BlocksRepaired != wantBlocks {
		t.Fatalf("blocks repaired = %d, want exactly %d — a restart-from-zero double-repairs and overcounts",
			task.BlocksRepaired, wantBlocks)
	}
	if task.Checkpoint != len(names) {
		t.Fatalf("final checkpoint = %d, want %d", task.Checkpoint, len(names))
	}

	// Byte-identical reads through the healed placements.
	ctl2 := NewClient(masterAddr, &ClientOptions{DialTimeout: time.Second, IOTimeout: 2 * time.Second})
	defer ctl2.Close()
	for name, want := range files {
		rep, err := ctl2.Place(PlaceRequest{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := blockserver.NewStore(code, rep.Addrs, rep.BlockSize, blockserver.WithClientOptions(fastClientOpts()))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := rs.ReadFile(context.Background(), name, rep.Size)
		rs.Close()
		if err != nil {
			t.Fatalf("reading %s after resumed heal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: resumed heal returned different bytes", name)
		}
	}
}

// TestMasterCleanDrain: a daemon stopping gracefully deregisters, so the
// master moves its blocks immediately — state left, not suspect/dead —
// and the healed placement serves identical bytes.
func TestMasterCleanDrain(t *testing.T) {
	code := testCode(t)
	blockSize := code.BlockAlign() * 8
	m, err := New(fastMasterConfig(code))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	servers, addrs := startServers(t, code, code.N()+1)
	hbs := make([]*Heartbeater, len(servers))
	for i := range servers {
		hbs[i] = startHeartbeat(t, m.Addr(), servers[i], addrs[i])
	}
	defer func() {
		for _, hb := range hbs {
			hb.Abort()
		}
	}()
	waitMembers(t, m, "alive", code.N()+1)

	ctl := NewClient(m.Addr(), &ClientOptions{DialTimeout: time.Second, IOTimeout: 2 * time.Second})
	defer ctl.Close()
	store, err := blockserver.NewStore(code, addrs[:code.N()], blockSize, blockserver.WithClientOptions(fastClientOpts()))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, code.K()*blockSize)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := store.WriteFile(context.Background(), "g", data); err != nil {
		t.Fatal(err)
	}
	store.Close()
	if _, err := ctl.Place(PlaceRequest{Name: "g", Size: len(data), BlockSize: blockSize, Addrs: addrs[:code.N()]}); err != nil {
		t.Fatal(err)
	}

	// Graceful shutdown of server 0: deregister (clean drain), then close.
	// The server stays up long enough to serve as a repair source? No —
	// repair never contacts the failed index; survivors regenerate from
	// their own blocks. Close it outright.
	drainIdx := 0
	hbs[drainIdx].Stop()
	servers[drainIdx].Close()

	waitFor(t, 10*time.Second, func() bool {
		task := findTask(m.Status(), ClassRecover)
		return task != nil && task.State == TaskDone
	}, "drain-triggered recovery")
	if mem := m.Status().Member(addrs[drainIdx]); mem == nil || mem.State != "left" {
		t.Fatalf("drained member: %+v — want state left (not suspect/dead)", mem)
	}
	rep, err := ctl.Place(PlaceRequest{Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Addrs[drainIdx] != addrs[code.N()] {
		t.Fatalf("drained placement[0] = %s, want spare %s", rep.Addrs[drainIdx], addrs[code.N()])
	}
	rs, err := blockserver.NewStore(code, rep.Addrs, rep.BlockSize, blockserver.WithClientOptions(fastClientOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	got, _, err := rs.ReadFile(context.Background(), "g", rep.Size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-drain read differs")
	}
}

// TestMasterPeriodicScrub: the scrub ticker finds and repairs silent
// corruption without any operator involvement.
func TestMasterPeriodicScrub(t *testing.T) {
	code := testCode(t)
	blockSize := code.BlockAlign() * 8
	cfg := fastMasterConfig(code)
	cfg.ScrubInterval = 50 * time.Millisecond
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	servers, addrs := startServers(t, code, code.N())
	ctl := NewClient(m.Addr(), &ClientOptions{DialTimeout: time.Second, IOTimeout: 2 * time.Second})
	defer ctl.Close()
	store, err := blockserver.NewStore(code, addrs, blockSize, blockserver.WithClientOptions(fastClientOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, code.K()*blockSize)
	rand.New(rand.NewSource(5)).Read(data)
	if _, err := store.WriteFile(context.Background(), "h", data); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Place(PlaceRequest{Name: "h", Size: len(data), BlockSize: blockSize, Addrs: addrs}); err != nil {
		t.Fatal(err)
	}

	// Bit-rot block 2 of stripe 0 (block names are file/stripe/index).
	if err := servers[2].CorruptBlock("h/0/2", 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, task := range m.Status().Tasks {
			if task.Class == string(ClassScrub) && task.State == TaskDone && task.BlocksRepaired >= 1 {
				return true
			}
		}
		return false
	}, "scrub to repair the corrupt block")
	got, _, err := store.ReadFile(context.Background(), "h", len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-scrub read differs")
	}
}

// waitGoroutines polls until the goroutine count returns to the baseline,
// failing with a stack dump on leak.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d goroutines > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}
