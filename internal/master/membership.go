package master

import (
	"sort"
	"sync"
	"time"
)

// State is a member's position in the failure-detection state machine.
type State int

const (
	// StateAlive: heartbeats arriving on schedule.
	StateAlive State = iota
	// StateSuspect: MissLimit heartbeat intervals have passed in silence.
	// Suspect members keep their placements — a restarting node usually
	// returns here, and returning clears the suspicion without a rebuild.
	StateSuspect
	// StateDead: the suspect stayed silent through the grace window. Dead
	// members become rebuild candidates once the (flap-damped) hold
	// expires.
	StateDead
	// StateLeft: the member deregistered (daemon shutdown) or an operator
	// drained it — an intentional departure, so its blocks move off
	// immediately instead of waiting out the suspect window.
	StateLeft
)

// String names a state for status pages and logs.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	}
	return "unknown"
}

// Member is one blockserver's tracked state. The memberSet hands out
// copies, so readers never race the tracker.
type Member struct {
	Addr  string
	State State
	Info  NodeInfo
	// LastBeat is when the most recent heartbeat arrived.
	LastBeat time.Time
	// SuspectSince / DeadSince stamp the transitions, driving the grace
	// window and the rebuild hold.
	SuspectSince time.Time
	DeadSince    time.Time
	// Flaps are the recent Suspect/Dead → Alive recoveries inside the flap
	// window. Each one doubles the rebuild hold (capped), so a node stuck
	// in a restart loop does not trigger a rebuild per lap.
	Flaps []time.Time
	// RebuildScheduled marks that this member's failure has already been
	// turned into recovery tasks; the detector fires at most once per
	// departure.
	RebuildScheduled bool
	// TxRateBps is the serving throughput derived from the BytesTx delta
	// between consecutive beats (0 until two samples exist; reset-tolerant:
	// a counter that went backwards — daemon restart — reads as 0).
	TxRateBps int64
}

// memberConfig tunes the failure detector.
type memberConfig struct {
	// Interval is the expected heartbeat cadence.
	Interval time.Duration
	// MissLimit is how many intervals of silence move Alive → Suspect.
	MissLimit int
	// Grace is how long a Suspect stays suspected before Dead.
	Grace time.Duration
	// RebuildHold is how long a Dead member holds before its blocks are
	// rebuilt elsewhere — the flap-damping base: a recently flappy member's
	// hold doubles per flap (capped at 8x).
	RebuildHold time.Duration
	// FlapWindow bounds how far back flaps count.
	FlapWindow time.Duration
}

// maxFlapShift caps the flap-damping hold extension at 2^3 = 8x.
const maxFlapShift = 3

// memberSet tracks membership under one lock; the master's detector tick,
// RPC handlers, and status page all go through it.
type memberSet struct {
	mu    sync.Mutex
	cfg   memberConfig
	clock func() time.Time
	m     map[string]*Member
}

func newMemberSet(cfg memberConfig, clock func() time.Time) *memberSet {
	return &memberSet{cfg: cfg, clock: clock, m: make(map[string]*Member)}
}

// Beat folds one heartbeat (or registration) in: unknown members are
// auto-registered — that is how membership re-forms after a master
// restart — and non-alive members return to Alive, recording a flap when
// they had already been suspected. It reports the state the member held
// before the beat and whether it is new.
func (s *memberSet) Beat(info NodeInfo) (prev State, isNew bool) {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	mem, ok := s.m[info.Addr]
	if !ok {
		s.m[info.Addr] = &Member{Addr: info.Addr, State: StateAlive, Info: info, LastBeat: now}
		return StateAlive, true
	}
	prev = mem.State
	if dt := now.Sub(mem.LastBeat); dt > 0 && info.BytesTx >= mem.Info.BytesTx {
		mem.TxRateBps = int64(float64(info.BytesTx-mem.Info.BytesTx) / dt.Seconds())
	} else {
		mem.TxRateBps = 0
	}
	if prev != StateAlive {
		// A recovery from suspicion (or beyond) is a flap; prune the ones
		// that aged out of the window while we are here.
		mem.Flaps = append(mem.Flaps, now)
		keep := mem.Flaps[:0]
		for _, f := range mem.Flaps {
			if now.Sub(f) <= s.cfg.FlapWindow {
				keep = append(keep, f)
			}
		}
		mem.Flaps = keep
	}
	mem.State = StateAlive
	mem.Info = info
	mem.LastBeat = now
	mem.SuspectSince, mem.DeadSince = time.Time{}, time.Time{}
	mem.RebuildScheduled = false
	return prev, false
}

// Leave marks an intentional departure (deregister or drain): the member
// goes StateLeft and becomes immediately due for rebuild on the next
// detector tick — no suspect window, no hold.
func (s *memberSet) Leave(addr string) (Member, bool) {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	mem, ok := s.m[addr]
	if !ok {
		return Member{}, false
	}
	if mem.State != StateLeft {
		mem.State = StateLeft
		mem.DeadSince = now
		mem.RebuildScheduled = false
	}
	return *mem.clone(), true
}

// Tick advances the state machine and returns the members newly due for
// rebuild (marking them scheduled, so each departure fires once). The
// transitions slice reports state changes for logging and metrics.
func (s *memberSet) Tick() (due []Member, transitions []Member) {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, mem := range s.m {
		switch mem.State {
		case StateAlive:
			if now.Sub(mem.LastBeat) > time.Duration(s.cfg.MissLimit)*s.cfg.Interval {
				mem.State = StateSuspect
				mem.SuspectSince = now
				transitions = append(transitions, *mem.clone())
			}
		case StateSuspect:
			if now.Sub(mem.SuspectSince) > s.cfg.Grace {
				mem.State = StateDead
				mem.DeadSince = now
				transitions = append(transitions, *mem.clone())
			}
		}
		switch mem.State {
		case StateDead:
			if !mem.RebuildScheduled && now.Sub(mem.DeadSince) > s.holdFor(mem) {
				mem.RebuildScheduled = true
				due = append(due, *mem.clone())
			}
		case StateLeft:
			if !mem.RebuildScheduled {
				mem.RebuildScheduled = true
				due = append(due, *mem.clone())
			}
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].Addr < due[j].Addr })
	sort.Slice(transitions, func(i, j int) bool { return transitions[i].Addr < transitions[j].Addr })
	return due, transitions
}

// holdFor is the flap-damped rebuild hold: the configured hold doubled
// once per recent flap, capped at 8x, so a node bouncing through restart
// loops has to stay down progressively longer before its blocks move.
func (s *memberSet) holdFor(mem *Member) time.Duration {
	shift := len(mem.Flaps)
	if shift > maxFlapShift {
		shift = maxFlapShift
	}
	return s.cfg.RebuildHold << shift
}

// clone deep-copies a member for handing out.
func (m *Member) clone() *Member {
	c := *m
	c.Flaps = append([]time.Time(nil), m.Flaps...)
	return &c
}

// Get returns a copy of the member at addr.
func (s *memberSet) Get(addr string) (Member, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mem, ok := s.m[addr]
	if !ok {
		return Member{}, false
	}
	return *mem.clone(), true
}

// List returns every member, sorted by address.
func (s *memberSet) List() []Member {
	s.mu.Lock()
	out := make([]Member, 0, len(s.m))
	for _, mem := range s.m {
		out = append(out, *mem.clone())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Alive returns the alive members, sorted by ascending stored bytes then
// address — the capacity-balanced order placement and newcomer selection
// consume.
func (s *memberSet) Alive() []Member {
	s.mu.Lock()
	out := make([]Member, 0, len(s.m))
	for _, mem := range s.m {
		if mem.State == StateAlive {
			out = append(out, *mem.clone())
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Info.BlockBytes != out[j].Info.BlockBytes {
			return out[i].Info.BlockBytes < out[j].Info.BlockBytes
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Rollup is the cluster-wide aggregate of the alive members' piggybacked
// health, computed under one lock pass — what the master's cluster_*
// gauges export and ClusterStatus carries.
type Rollup struct {
	Alive         int   `json:"alive"`
	Blocks        int64 `json:"blocks"`
	BlockBytes    int64 `json:"block_bytes"`
	CorruptServes int64 `json:"corrupt_serves"`
	QueueDepth    int64 `json:"queue_depth"` // summed in-flight requests
	TxRateBps     int64 `json:"tx_rate_bps"` // summed serving throughput
	RPCP99NS      int64 `json:"rpc_p99_ns"`  // worst per-node windowed RPC p99
}

// Rollup aggregates the alive members.
func (s *memberSet) Rollup() Rollup {
	var r Rollup
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, mem := range s.m {
		if mem.State != StateAlive {
			continue
		}
		r.Alive++
		r.Blocks += mem.Info.Blocks
		r.BlockBytes += mem.Info.BlockBytes
		r.CorruptServes += mem.Info.CorruptServes
		r.QueueDepth += mem.Info.QueueDepth
		r.TxRateBps += mem.TxRateBps
		r.RPCP99NS = max(r.RPCP99NS, mem.Info.RPCP99NS)
	}
	return r
}
