package master

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for deterministic
// state-machine tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func testMemberConfig() memberConfig {
	return memberConfig{
		Interval:    time.Second,
		MissLimit:   3,
		Grace:       5 * time.Second,
		RebuildHold: 2 * time.Second,
		FlapWindow:  time.Minute,
	}
}

// TestMembershipLifecycle walks one member Alive → Suspect → Dead → due
// for rebuild on the configured schedule, and verifies each boundary is
// exclusive (one tick early changes nothing).
func TestMembershipLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ms := newMemberSet(testMemberConfig(), clk.Now)

	if prev, isNew := ms.Beat(NodeInfo{Addr: "a", Blocks: 7}); !isNew || prev != StateAlive {
		t.Fatalf("first beat: prev=%v isNew=%v", prev, isNew)
	}
	// Silence for exactly MissLimit intervals: still alive (boundary is
	// exclusive).
	clk.Advance(3 * time.Second)
	if due, tr := ms.Tick(); len(due) != 0 || len(tr) != 0 {
		t.Fatalf("at the miss boundary: due=%d transitions=%d", len(due), len(tr))
	}
	// One more nanosecond of silence: Suspect.
	clk.Advance(time.Nanosecond)
	_, tr := ms.Tick()
	if len(tr) != 1 || tr[0].State != StateSuspect {
		t.Fatalf("past the miss boundary: transitions=%+v", tr)
	}
	// Grace window passes: Dead, but held — not yet due for rebuild.
	clk.Advance(5*time.Second + time.Nanosecond)
	due, tr := ms.Tick()
	if len(tr) != 1 || tr[0].State != StateDead {
		t.Fatalf("past grace: transitions=%+v", tr)
	}
	if len(due) != 0 {
		t.Fatalf("dead member due before the rebuild hold: %+v", due)
	}
	// Hold expires: due exactly once.
	clk.Advance(2*time.Second + time.Nanosecond)
	due, _ = ms.Tick()
	if len(due) != 1 || due[0].Addr != "a" {
		t.Fatalf("after hold: due=%+v", due)
	}
	due, _ = ms.Tick()
	if len(due) != 0 {
		t.Fatalf("rebuild scheduled twice: %+v", due)
	}
}

// TestMembershipRecoveryClearsSuspicion: a suspect that beats again
// returns to Alive with a recorded flap and no rebuild.
func TestMembershipRecoveryClearsSuspicion(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ms := newMemberSet(testMemberConfig(), clk.Now)
	ms.Beat(NodeInfo{Addr: "a"})
	clk.Advance(3*time.Second + time.Nanosecond)
	ms.Tick()
	if m, _ := ms.Get("a"); m.State != StateSuspect {
		t.Fatalf("state = %v, want suspect", m.State)
	}
	prev, isNew := ms.Beat(NodeInfo{Addr: "a"})
	if isNew || prev != StateSuspect {
		t.Fatalf("returning beat: prev=%v isNew=%v", prev, isNew)
	}
	m, _ := ms.Get("a")
	if m.State != StateAlive || len(m.Flaps) != 1 {
		t.Fatalf("after return: state=%v flaps=%d", m.State, len(m.Flaps))
	}
	if due, _ := ms.Tick(); len(due) != 0 {
		t.Fatalf("recovered member scheduled for rebuild: %+v", due)
	}
}

// TestMembershipFlapDamping: each recent flap doubles the rebuild hold,
// capped at 8x, so a restart-looping node must stay down progressively
// longer before its blocks move.
func TestMembershipFlapDamping(t *testing.T) {
	cfg := testMemberConfig()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ms := newMemberSet(cfg, clk.Now)
	ms.Beat(NodeInfo{Addr: "a"})

	// Flap 5 times: suspect then return.
	for i := 0; i < 5; i++ {
		clk.Advance(3*time.Second + time.Nanosecond)
		ms.Tick()
		ms.Beat(NodeInfo{Addr: "a"})
	}
	m, _ := ms.Get("a")
	if len(m.Flaps) != 5 {
		t.Fatalf("flaps = %d, want 5", len(m.Flaps))
	}
	// Now go fully dead. The hold must be 8x (cap), not 32x.
	clk.Advance(3*time.Second + time.Nanosecond)
	ms.Tick() // suspect
	clk.Advance(5*time.Second + time.Nanosecond)
	ms.Tick() // dead
	hold := cfg.RebuildHold << maxFlapShift
	clk.Advance(hold - time.Millisecond)
	if due, _ := ms.Tick(); len(due) != 0 {
		t.Fatalf("flapping member rebuilt before the extended hold: %+v", due)
	}
	clk.Advance(2 * time.Millisecond)
	if due, _ := ms.Tick(); len(due) != 1 {
		t.Fatalf("member not due after the extended hold")
	}
}

// TestMembershipLeave: an intentional departure is due immediately — no
// suspect window, no hold — and fires exactly once.
func TestMembershipLeave(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ms := newMemberSet(testMemberConfig(), clk.Now)
	ms.Beat(NodeInfo{Addr: "a"})
	if _, ok := ms.Leave("a"); !ok {
		t.Fatal("leave of a known member failed")
	}
	due, _ := ms.Tick()
	if len(due) != 1 || due[0].State != StateLeft {
		t.Fatalf("left member not immediately due: %+v", due)
	}
	if due, _ := ms.Tick(); len(due) != 0 {
		t.Fatalf("left member due twice")
	}
	if _, ok := ms.Leave("ghost"); ok {
		t.Fatal("leave of an unknown member succeeded")
	}
}

// TestMembershipAliveOrder: Alive returns capacity-balanced order —
// ascending stored bytes — which placement and newcomer selection rely
// on.
func TestMembershipAliveOrder(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ms := newMemberSet(testMemberConfig(), clk.Now)
	ms.Beat(NodeInfo{Addr: "big", BlockBytes: 300})
	ms.Beat(NodeInfo{Addr: "small", BlockBytes: 100})
	ms.Beat(NodeInfo{Addr: "mid", BlockBytes: 200})
	alive := ms.Alive()
	want := []string{"small", "mid", "big"}
	for i, w := range want {
		if alive[i].Addr != w {
			t.Fatalf("alive order = %v, want %v", alive, want)
		}
	}
}
