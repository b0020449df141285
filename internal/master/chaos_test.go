package master

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/faultnet"
)

// TestChaosHeartbeatPartition: a network partition between one daemon and
// the master — injected with faultnet on the heartbeat connection — must
// walk the member Alive → Suspect → Dead, and healing the partition must
// bring it back Alive with the flap recorded. The rebuild hold outlasts
// the bounce, so the master schedules no spurious rebuild even though the
// dead member held placements. Runs in short mode: it is part of the
// `make master` gate.
func TestChaosHeartbeatPartition(t *testing.T) {
	code := testCode(t)
	blockSize := code.BlockAlign() * 8
	cfg := fastMasterConfig(code)
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.Grace = 60 * time.Millisecond
	// The hold far outlasts the partition: transient bounces must not move
	// blocks.
	cfg.RebuildHold = time.Minute
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	servers, addrs := startServers(t, code, code.N())

	// Server 0's heartbeats flow through a client-side fault injector; the
	// rest beat directly.
	in := faultnet.NewInjector()
	faultyDial := func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return in.WrapConn(c), nil
	}
	hbs := make([]*Heartbeater, len(servers))
	for i := range servers {
		hc := HeartbeatConfig{
			Master: m.Addr(),
			Addr:   addrs[i],
			Retry:  fastRetry(),
		}
		if i == 0 {
			hc.Client = &ClientOptions{DialTimeout: time.Second, IOTimeout: time.Second, Dial: faultyDial}
		}
		hbs[i] = NewHeartbeater(hc)
		hbs[i].Start()
	}
	defer func() {
		for _, hb := range hbs {
			hb.Abort()
		}
	}()
	waitMembers(t, m, "alive", code.N())

	// Give the partitioned-to-be member real placements, so a spurious
	// rebuild would be observable as a task.
	store, err := blockserver.NewStore(code, addrs, blockSize, withPool(t, fastClientOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, code.K()*blockSize)
	rand.New(rand.NewSource(11)).Read(data)
	if _, err := store.WriteFile(context.Background(), "p", data); err != nil {
		t.Fatal(err)
	}
	ctl := NewClient(m.Addr(), &ClientOptions{DialTimeout: time.Second, IOTimeout: 2 * time.Second})
	defer ctl.Close()
	if _, err := ctl.Place(PlaceRequest{Name: "p", Size: len(data), BlockSize: blockSize, Addrs: addrs}); err != nil {
		t.Fatal(err)
	}

	// Partition: every heartbeat connection dies after its first byte. The
	// daemon keeps redialing; the master keeps hearing nothing.
	in.SetDefault(faultnet.Policy{CutAfterBytes: 1})
	waitFor(t, 10*time.Second, func() bool {
		mem := m.Status().Member(addrs[0])
		return mem != nil && mem.State == "suspect"
	}, "partitioned member to become suspect")
	waitFor(t, 10*time.Second, func() bool {
		mem := m.Status().Member(addrs[0])
		return mem != nil && mem.State == "dead"
	}, "partitioned member to become dead")

	// Heal. The client redials, the fresh connection is transparent, the
	// daemon re-registers and the member comes back without a rebuild.
	in.SetDefault(faultnet.Policy{})
	waitFor(t, 10*time.Second, func() bool {
		mem := m.Status().Member(addrs[0])
		return mem != nil && mem.State == "alive"
	}, "healed member to re-register")

	st := m.Status()
	if mem := st.Member(addrs[0]); mem.Flaps < 1 {
		t.Fatalf("flap not recorded: %+v", mem)
	}
	if len(st.Tasks) != 0 {
		t.Fatalf("spurious tasks scheduled across the bounce: %+v", st.Tasks)
	}
	if _, failed := hbs[0].Beats(); failed == 0 {
		t.Fatal("injector never actually failed a beat")
	}
	// The placement never moved.
	rep, err := ctl.Place(PlaceRequest{Name: "p"})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range rep.Addrs {
		if a != addrs[i] {
			t.Fatalf("placement moved during a transient bounce: %v", rep.Addrs)
		}
	}
}
