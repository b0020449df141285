package master

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/obs"
)

// Config tunes a Master. The zero value plus a Code is runnable: sensible
// production-ish timings, no persistence, scrubbing off.
type Config struct {
	// Code is the erasure code every placement uses; required.
	Code *carousel.Code
	// DataDir is where the journal and snapshot live. Empty runs the
	// master in memory (tests, throwaway clusters): no persistence, no
	// restart recovery.
	DataDir string
	// HeartbeatInterval is the cadence daemons are told to beat at
	// (default 2s).
	HeartbeatInterval time.Duration
	// MissLimit heartbeat intervals of silence move Alive → Suspect
	// (default 3).
	MissLimit int
	// Grace is how long a Suspect may stay silent before Dead (default
	// 2 × MissLimit × HeartbeatInterval).
	Grace time.Duration
	// RebuildHold delays the rebuild after a Dead transition; flap damping
	// doubles it per recent flap (default = Grace).
	RebuildHold time.Duration
	// FlapWindow bounds how far back flaps count (default 10 × Grace).
	FlapWindow time.Duration
	// ScrubInterval schedules periodic scrub sweeps over every file
	// (0 = disabled).
	ScrubInterval time.Duration
	// RecoverBandwidth caps each recovery task's helper traffic in
	// bytes/sec through WithRecoveryBandwidth (0 = unthrottled).
	RecoverBandwidth int64
	// RecoverCap / ScrubCap are the per-class concurrency caps
	// (defaults 2 and 1).
	RecoverCap int
	ScrubCap   int
	// ClientOptions configures the master's one block-client pool, which
	// every task item's Store runs over; nil uses blockserver defaults. A
	// newcomer dials its helpers under its own server's pool options.
	ClientOptions *blockserver.Options
	// Logger receives membership transitions and task events; nil uses
	// slog.Default().
	Logger *slog.Logger
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 2 * time.Second
	}
	if out.MissLimit <= 0 {
		out.MissLimit = 3
	}
	if out.Grace <= 0 {
		out.Grace = 2 * time.Duration(out.MissLimit) * out.HeartbeatInterval
	}
	if out.RebuildHold <= 0 {
		out.RebuildHold = out.Grace
	}
	if out.FlapWindow <= 0 {
		out.FlapWindow = 10 * out.Grace
	}
	if out.RecoverCap <= 0 {
		out.RecoverCap = 2
	}
	if out.ScrubCap <= 0 {
		out.ScrubCap = 1
	}
	if out.Logger == nil {
		out.Logger = slog.Default()
	}
	return out
}

// Master is the control-plane daemon: membership tracker, placement
// authority, failure detector, and repair supervisor.
type Master struct {
	cfg     Config
	log     *slog.Logger
	epoch   int64
	members *memberSet
	sched   *scheduler

	// mu guards the journal and the persistent state image. Lock order:
	// mu is leaf-only with respect to the scheduler — persist hooks take
	// mu while sched.mu is NOT held.
	mu      sync.Mutex
	journal *journal
	state   *masterState

	// pool is the block-client pool every task item's Store runs over,
	// from New to Close, so an item reuses the connections the items
	// before it parked, and a task dials a peer at most its per-peer
	// budget of times.
	pool *blockserver.Pool

	ln  net.Listener
	srv *http.Server

	loopCtx    context.Context
	loopCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New builds a master, loading (or creating) its journal when DataDir is
// set and re-enqueueing every unfinished task from the recovered state —
// the restart-resume half of checkpointing.
func New(cfg Config) (*Master, error) {
	if cfg.Code == nil {
		return nil, fmt.Errorf("master: config requires a Code")
	}
	c := cfg.withDefaults()
	m := &Master{
		cfg:   c,
		log:   c.Logger,
		epoch: time.Now().UnixNano(),
		members: newMemberSet(memberConfig{
			Interval:    c.HeartbeatInterval,
			MissLimit:   c.MissLimit,
			Grace:       c.Grace,
			RebuildHold: c.RebuildHold,
			FlapWindow:  c.FlapWindow,
		}, time.Now),
		state: newMasterState(),
	}
	if c.DataDir != "" {
		j, st, err := openJournal(c.DataDir)
		if err != nil {
			return nil, err
		}
		m.journal, m.state = j, st
	}
	var copts blockserver.Options
	if c.ClientOptions != nil {
		copts = *c.ClientOptions
	}
	m.pool = blockserver.NewPool(nil, blockserver.PoolOptions{Client: copts})
	m.sched = newScheduler(
		map[TaskClass]int{ClassRecover: c.RecoverCap, ClassScrub: c.ScrubCap},
		m.runItem,
		taskPersist{onState: m.persistTaskState, onCkpt: m.persistCheckpoint},
	)
	// Cluster roll-ups: the heartbeat-piggybacked health of alive members
	// aggregated into one cluster view on the master's obs endpoint — the
	// Rollup ClusterStatus carries to carouselctl top, for scrapers.
	// Membership and the task queue are in ClusterStatus only.
	reg := obs.Default()
	roll := func(read func(Rollup) int64) func() int64 {
		return func() int64 { return read(m.members.Rollup()) }
	}
	reg.GaugeFunc("cluster_blocks", roll(func(r Rollup) int64 { return r.Blocks }))
	reg.GaugeFunc("cluster_block_bytes", roll(func(r Rollup) int64 { return r.BlockBytes }))
	reg.GaugeFunc("cluster_corrupt_serves", roll(func(r Rollup) int64 { return r.CorruptServes }))
	reg.GaugeFunc("cluster_queue_depth", roll(func(r Rollup) int64 { return r.QueueDepth }))
	reg.GaugeFunc("cluster_tx_rate_bps", roll(func(r Rollup) int64 { return r.TxRateBps }))
	reg.GaugeFunc("cluster_rpc_p99_ns", roll(func(r Rollup) int64 { return r.RPCP99NS }))
	reg.GaugeFunc("cluster_files", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(len(m.state.Files))
	})
	return m, nil
}

// Start listens on addr and runs the master. Use addr ":0" to let the
// kernel pick a port (tests); Addr reports the bound address.
func (m *Master) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	m.StartListener(ln)
	return nil
}

// StartListener runs the master on an existing listener (fault-injection
// tests wrap one first).
func (m *Master) StartListener(ln net.Listener) {
	m.ln = ln
	m.loopCtx, m.loopCancel = context.WithCancel(context.Background())

	// Resume unfinished tasks from the recovered state before the detector
	// can double-schedule: RebuildScheduled is soft state lost with the old
	// master, but re-registering members arrive Alive, and dead members
	// whose placements already moved have no files left to schedule.
	m.mu.Lock()
	var resume []*Task
	for _, t := range m.state.Tasks {
		if t.State == TaskPending || t.State == TaskRunning {
			resume = append(resume, t.clone())
		}
	}
	m.mu.Unlock()
	m.sched.Start()
	for _, t := range resume {
		m.log.Info("master: resuming task", "id", t.ID, "class", t.Class, "checkpoint", t.Checkpoint, "items", len(t.Items))
		m.sched.Submit(t)
	}

	mux := http.NewServeMux()
	handle(mux, "/beat", m.handleBeat)
	handle(mux, "/leave", m.handleLeave)
	handle(mux, "/place", m.handlePlace)
	handle(mux, "/status", func(struct{}) (*ClusterStatus, error) { return m.Status(), nil })
	m.srv = &http.Server{Handler: mux, ErrorLog: slog.NewLogLogger(m.log.Handler(), slog.LevelWarn)}

	m.wg.Add(2)
	go func() {
		defer m.wg.Done()
		m.srv.Serve(ln)
	}()
	go m.detectLoop()
	if m.cfg.ScrubInterval > 0 {
		m.wg.Add(1)
		go m.scrubLoop()
	}
}

// Addr returns the listener address.
func (m *Master) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// shutdownGrace bounds how long Close waits for in-flight requests before
// cutting their connections.
const shutdownGrace = 5 * time.Second

// Close stops accepting, waits for in-flight requests, stops the
// background loops and scheduler (checkpoints stay journaled for the next
// start), and closes the journal.
func (m *Master) Close() error {
	if m.srv != nil {
		// Shutdown returns once every handler is done, so none appends to
		// the journal after it closes below.
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if m.srv.Shutdown(ctx) != nil {
			m.srv.Close()
		}
		cancel()
	}
	if m.loopCancel != nil {
		m.loopCancel()
	}
	m.sched.Close()
	m.pool.Close()
	m.wg.Wait()
	m.mu.Lock()
	err := m.journal.close()
	m.journal = nil
	m.mu.Unlock()
	return err
}

// handle registers route as a POST whose checksummed JSON body decodes
// into Req and whose reply is fn's Rep. A damaged body answers 400 and an
// error from fn 422, each with an errorBody and the connection kept.
func handle[Req, Rep any](mux *http.ServeMux, route string, fn func(Req) (Rep, error)) {
	mux.HandleFunc("POST "+route, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		raw, err := readBody(r.Body, r.Header)
		if err == nil {
			err = json.Unmarshal(raw, &req)
		}
		if err != nil {
			reply(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("%s request: %v", route, err)})
			return
		}
		rep, err := fn(req)
		if err != nil {
			reply(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
			return
		}
		reply(w, http.StatusOK, rep)
	})
}

// reply writes one checksummed JSON body.
func reply(w http.ResponseWriter, status int, v any) {
	body, sum, _ := encode(v) // every reply type is plain data, which always marshals
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(crcHeader, sum)
	w.WriteHeader(status)
	w.Write(body)
}

// handleBeat folds a beat into membership; a beat from an unknown
// address registers it.
func (m *Master) handleBeat(info NodeInfo) (RegisterAck, error) {
	if info.Addr == "" {
		return RegisterAck{}, fmt.Errorf("master: heartbeat without addr")
	}
	prev, isNew := m.members.Beat(info)
	if isNew {
		m.log.Info("master: member joined", "addr", info.Addr, "blocks", info.Blocks)
	} else if prev != StateAlive {
		m.log.Warn("master: member returned", "addr", info.Addr, "was", prev.String())
	}
	return RegisterAck{IntervalMS: m.cfg.HeartbeatInterval.Milliseconds(), Epoch: m.epoch}, nil
}

// handlePlace assigns or looks up a file placement. The call is
// idempotent by name: repeats (and post-rebuild lookups) return the
// current placement, newcomer substitutions included.
func (m *Master) handlePlace(req PlaceRequest) (PlaceReply, error) {
	if req.Name == "" {
		return PlaceReply{}, fmt.Errorf("master: place without name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.state.Files[req.Name]; ok {
		return PlaceReply{Name: f.Name, Size: f.Size, BlockSize: f.BlockSize, Addrs: append([]string(nil), f.Addrs...)}, nil
	}
	if req.Size <= 0 {
		// A name-only request is a lookup; don't fall into auto-placement
		// validation errors for a file that simply isn't there.
		return PlaceReply{}, fmt.Errorf("master: unknown file %q", req.Name)
	}
	addrs := req.Addrs
	if len(addrs) == 0 {
		alive := m.members.Alive()
		if len(alive) < m.cfg.Code.N() {
			return PlaceReply{}, fmt.Errorf("master: need %d alive servers, have %d", m.cfg.Code.N(), len(alive))
		}
		addrs = make([]string, m.cfg.Code.N())
		for i := range addrs {
			addrs[i] = alive[i].Addr // ascending stored bytes: capacity-balanced
		}
	} else if len(addrs) != m.cfg.Code.N() {
		return PlaceReply{}, fmt.Errorf("master: placement needs %d addrs, got %d", m.cfg.Code.N(), len(addrs))
	}
	if req.Size <= 0 || req.BlockSize <= 0 {
		return PlaceReply{}, fmt.Errorf("master: place requires positive size and block size")
	}
	p := &placement{Name: req.Name, Size: req.Size, BlockSize: req.BlockSize, Addrs: append([]string(nil), addrs...)}
	if err := m.appendLocked(&record{T: "file", File: p.clone()}); err != nil {
		return PlaceReply{}, err
	}
	m.state.Files[p.Name] = p
	return PlaceReply{Name: p.Name, Size: p.Size, BlockSize: p.BlockSize, Addrs: append([]string(nil), p.Addrs...)}, nil
}

// handleLeave marks a member left — a daemon's clean shutdown or an
// operator's drain — so the next detector tick schedules its move-off.
func (m *Master) handleLeave(req DrainRequest) (DrainReply, error) {
	mem, ok := m.members.Leave(req.Addr)
	if !ok {
		return DrainReply{}, fmt.Errorf("master: unknown member %q", req.Addr)
	}
	n := 0
	m.mu.Lock()
	for _, f := range m.state.Files {
		if f.indexOf(req.Addr) >= 0 {
			n++
		}
	}
	m.mu.Unlock()
	m.log.Info("master: member leaving", "addr", mem.Addr, "files", n)
	return DrainReply{Files: n}, nil
}

// detectLoop ticks the failure detector. Dead/left members that come due
// turn into recovery tasks here — the event the whole control plane exists
// for.
func (m *Master) detectLoop() {
	defer m.wg.Done()
	tick := m.cfg.HeartbeatInterval / 2
	if tick <= 0 {
		tick = time.Second
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-m.loopCtx.Done():
			return
		case <-tk.C:
		}
		due, transitions := m.members.Tick()
		for _, mem := range transitions {
			m.log.Warn("master: member transition", "addr", mem.Addr, "state", mem.State.String())
		}
		for _, mem := range due {
			if err := m.scheduleRecovery(mem); err != nil {
				m.log.Error("master: scheduling recovery", "addr", mem.Addr, "err", err)
			}
		}
	}
}

// scrubLoop schedules periodic scrub sweeps, skipping a round while one is
// still in flight.
func (m *Master) scrubLoop() {
	defer m.wg.Done()
	tk := time.NewTicker(m.cfg.ScrubInterval)
	defer tk.Stop()
	for {
		select {
		case <-m.loopCtx.Done():
			return
		case <-tk.C:
		}
		if m.sched.HasActive(ClassScrub) {
			continue
		}
		if err := m.scheduleScrub(); err != nil {
			m.log.Error("master: scheduling scrub", "err", err)
		}
	}
}

// scheduleRecovery turns one departed member into a recovery task: for
// every file holding a block on the member, pick a newcomer (the
// least-loaded alive server not already in the stripe), journal the
// placement move, and emit a task item whose Addrs have the newcomer
// substituted at the failed index — exactly the Store.RecoverServer
// contract. Falls back to repair-in-place (same address) when the cluster
// has no spare, which covers a server restarted empty.
func (m *Master) scheduleRecovery(mem Member) error {
	alive := m.members.Alive()
	m.mu.Lock()
	defer m.mu.Unlock()
	var items []TaskItem
	// Spread substitutions round-robin over eligible newcomers so a drain
	// does not dump every file onto the single emptiest server.
	next := 0
	for _, f := range sortedFiles(m.state.Files) {
		idx := f.indexOf(mem.Addr)
		if idx < 0 {
			continue
		}
		newcomer := mem.Addr
		if len(alive) > 0 {
			for probe := 0; probe < len(alive); probe++ {
				cand := alive[(next+probe)%len(alive)]
				if f.indexOf(cand.Addr) < 0 {
					newcomer = cand.Addr
					next = (next + probe + 1) % len(alive)
					break
				}
			}
		}
		if newcomer != mem.Addr {
			if err := m.appendLocked(&record{T: "move", Move: &moveRec{Name: f.Name, Idx: idx, Addr: newcomer}}); err != nil {
				return err
			}
			f.Addrs[idx] = newcomer
		}
		items = append(items, TaskItem{
			File:      f.Name,
			Size:      f.Size,
			BlockSize: f.BlockSize,
			Addrs:     append([]string(nil), f.Addrs...),
			Failed:    idx,
		})
	}
	if len(items) == 0 {
		m.log.Info("master: departed member held no placements", "addr", mem.Addr)
		return nil
	}
	t := &Task{
		ID:        m.state.NextTaskID,
		Class:     ClassRecover,
		State:     TaskPending,
		Created:   time.Now(),
		Server:    mem.Addr,
		Items:     items,
		Bandwidth: m.cfg.RecoverBandwidth,
	}
	m.state.NextTaskID++
	if err := m.appendLocked(&record{T: "task", Task: t.clone()}); err != nil {
		return err
	}
	m.state.Tasks[t.ID] = t.clone()
	m.log.Warn("master: scheduled recovery", "addr", mem.Addr, "task", t.ID, "files", len(items))
	m.sched.Submit(t)
	return nil
}

// scheduleScrub enqueues one sweep over every file under management.
func (m *Master) scheduleScrub() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var items []TaskItem
	for _, f := range sortedFiles(m.state.Files) {
		items = append(items, TaskItem{
			File:      f.Name,
			Size:      f.Size,
			BlockSize: f.BlockSize,
			Addrs:     append([]string(nil), f.Addrs...),
			Failed:    -1,
		})
	}
	if len(items) == 0 {
		return nil
	}
	t := &Task{
		ID:      m.state.NextTaskID,
		Class:   ClassScrub,
		State:   TaskPending,
		Created: time.Now(),
		Items:   items,
	}
	m.state.NextTaskID++
	if err := m.appendLocked(&record{T: "task", Task: t.clone()}); err != nil {
		return err
	}
	m.state.Tasks[t.ID] = t.clone()
	m.sched.Submit(t)
	return nil
}

// runItem executes one task item: build a transient Store over the item's
// snapshot addrs and the master's one pool, whose connections outlive it
// for the next item, and run the recovery (or scrub) for that file. The
// per-task bandwidth budget flows into RecoverServer's token bucket. Each
// item roots a trace of its own, so its rebuild tree reaches
// /debug/traces.
func (m *Master) runItem(ctx context.Context, t *Task, item TaskItem) (int64, error) {
	ctx, sp := obs.StartSpan(ctx, "master.item")
	sp.SetAttr("task", t.ID).SetAttr("file", item.File).SetAttr("failed", item.Failed)
	defer sp.End()
	st, err := blockserver.NewStore(m.cfg.Code, item.Addrs, item.BlockSize, blockserver.WithPool(m.pool))
	if err != nil {
		return 0, err
	}
	defer st.Close()
	if item.Failed >= 0 {
		var ropts []blockserver.RecoveryOption
		if t.Bandwidth > 0 {
			ropts = append(ropts, blockserver.WithRecoveryBandwidth(t.Bandwidth))
		}
		rep, err := st.RecoverServer(ctx, item.Failed, []blockserver.FileSpec{{Name: item.File, Size: item.Size}}, ropts...)
		var blocks int64
		if rep != nil {
			blocks = int64(rep.BlocksRepaired)
		}
		return blocks, err
	}
	rep, err := st.Scrub(ctx, item.File, item.Size, true)
	var blocks int64
	if rep != nil {
		blocks = int64(len(rep.Repaired))
	}
	return blocks, err
}

// persistTaskState journals a task lifecycle edge and folds it into the
// persistent image.
func (m *Master) persistTaskState(id uint64, state, errMsg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := &record{T: "state", St: &stateRec{ID: id, State: state, Err: errMsg}}
	m.state.apply(rec)
	if err := m.appendLocked(rec); err != nil {
		m.log.Error("master: journaling task state", "task", id, "err", err)
	}
}

// persistCheckpoint journals checkpoint progress — the record a restarted
// master resumes from.
func (m *Master) persistCheckpoint(id uint64, done int, blocks int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := &record{T: "ckpt", Ckpt: &ckptRec{ID: id, Done: done, Blocks: blocks}}
	m.state.apply(rec)
	if err := m.appendLocked(rec); err != nil {
		m.log.Error("master: journaling checkpoint", "task", id, "err", err)
	}
}

// appendLocked writes one journal record (caller holds m.mu) and compacts
// when the journal has grown enough.
func (m *Master) appendLocked(rec *record) error {
	if err := m.journal.append(rec); err != nil {
		return err
	}
	if m.journal.shouldCompact() {
		if err := m.journal.compact(m.state); err != nil {
			return fmt.Errorf("master: compacting journal: %w", err)
		}
	}
	return nil
}

// Status assembles the cluster view served to carouselctl and the tests.
func (m *Master) Status() *ClusterStatus {
	now := time.Now()
	cs := &ClusterStatus{Epoch: m.epoch, Rollup: m.members.Rollup()}
	for _, mem := range m.members.List() {
		cs.Members = append(cs.Members, MemberStatus{
			Addr:          mem.Addr,
			State:         mem.State.String(),
			LastBeatAgoMS: now.Sub(mem.LastBeat).Milliseconds(),
			Blocks:        mem.Info.Blocks,
			BlockBytes:    mem.Info.BlockBytes,
			CorruptServes: mem.Info.CorruptServes,
			Flaps:         len(mem.Flaps),
			ObsAddr:       mem.Info.ObsAddr,
			RPCP99NS:      mem.Info.RPCP99NS,
			QueueDepth:    mem.Info.QueueDepth,
			TxRateBps:     mem.TxRateBps,
		})
	}
	m.mu.Lock()
	cs.Files = len(m.state.Files)
	m.mu.Unlock()
	cs.Pending, cs.Running = m.sched.Counts()
	for _, t := range m.sched.Snapshot() {
		cs.Tasks = append(cs.Tasks, TaskStatus{
			ID:             t.ID,
			Class:          string(t.Class),
			State:          t.State,
			Server:         t.Server,
			Items:          len(t.Items),
			Checkpoint:     t.Checkpoint,
			BlocksRepaired: t.BlocksRepaired,
			Err:            t.Err,
		})
	}
	return cs
}
