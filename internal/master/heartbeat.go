package master

import (
	"context"
	"sync"
	"time"

	"carousel/internal/retry"
)

// HeartbeatConfig tunes a daemon-side heartbeater.
type HeartbeatConfig struct {
	// Master is the control-plane address to register with; required.
	Master string
	// Addr is this blockserver's dialable block-service address — its
	// identity with the master; required.
	Addr string
	// Info supplies the capacity and health counters piggybacked on each
	// beat; nil sends bare liveness.
	Info func() NodeInfo
	// Interval overrides the master-acked heartbeat cadence (0 = use the
	// master's).
	Interval time.Duration
	// Retry paces reconnection after a failed beat; the zero value uses a
	// jittered 100ms..5s exponential backoff.
	Retry retry.Policy
	// Client overrides connection behavior (fault-injection Dial hooks).
	Client *ClientOptions
}

// Heartbeater runs a blockserver daemon's side of the membership protocol:
// register with the master, then beat at the acked interval over one
// persistent connection, reconnecting with jittered exponential backoff
// when the master is unreachable (a restarting master sees the daemon
// re-register on the next successful beat — that is how membership
// re-forms without a journal). Stop deregisters: a clean drain, so the
// master moves the blocks immediately instead of waiting out the suspect
// window.
type Heartbeater struct {
	cfg    HeartbeatConfig
	client *Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	beats int64
	fails int64
}

// NewHeartbeater builds a heartbeater; Start launches it.
func NewHeartbeater(cfg HeartbeatConfig) *Heartbeater {
	if cfg.Retry.Attempts == 0 {
		cfg.Retry = retry.Policy{Attempts: 1 << 30, Base: 100 * time.Millisecond, Max: 5 * time.Second, Multiplier: 2, Jitter: 0.2}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Heartbeater{
		cfg:    cfg,
		client: NewClient(cfg.Master, cfg.Client),
		ctx:    ctx,
		cancel: cancel,
	}
}

// Start launches the beat loop.
func (h *Heartbeater) Start() {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.loop()
	}()
}

// Stop halts the loop, deregisters (best-effort, bounded by the client's
// IO timeout), and closes the connection.
func (h *Heartbeater) Stop() {
	h.cancel()
	h.wg.Wait()
	// The loop goroutine has exited; the client is ours again.
	_ = h.client.Deregister(h.cfg.Addr)
	h.client.Close()
}

// Abort halts the loop WITHOUT deregistering — the daemon equivalent of
// SIGKILL, for tests that need a member to vanish and be detected rather
// than drain cleanly.
func (h *Heartbeater) Abort() {
	h.cancel()
	h.wg.Wait()
	h.client.Close()
}

// Beats reports successful and failed beat counts, for tests.
func (h *Heartbeater) Beats() (ok, failed int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.beats, h.fails
}

// loop registers, then beats at the acked interval. Failures reset to the
// register state behind a backoff wait, so a partitioned or restarting
// master costs jittered reconnect attempts, not a tight dial spin.
func (h *Heartbeater) loop() {
	backoff := 1
	interval := h.cfg.Interval
	registered := false
	for {
		var err error
		var ack RegisterAck
		if registered {
			ack, err = h.client.Heartbeat(h.info())
		} else {
			ack, err = h.client.Register(h.info())
		}
		if err != nil {
			h.mu.Lock()
			h.fails++
			h.mu.Unlock()
			registered = false
			// Jittered exponential wait before the next attempt; Wait
			// reports false when the context was canceled mid-sleep.
			if !h.cfg.Retry.Wait(h.ctx, backoff) {
				return
			}
			if backoff < 1<<20 {
				backoff++
			}
			continue
		}
		h.mu.Lock()
		h.beats++
		h.mu.Unlock()
		registered = true
		backoff = 1
		if h.cfg.Interval <= 0 && ack.Interval() > 0 {
			interval = ack.Interval()
		}
		if interval <= 0 {
			interval = 2 * time.Second
		}
		select {
		case <-h.ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

// info snapshots the piggybacked node report.
func (h *Heartbeater) info() NodeInfo {
	info := NodeInfo{Addr: h.cfg.Addr}
	if h.cfg.Info != nil {
		info = h.cfg.Info()
		info.Addr = h.cfg.Addr
	}
	return info
}
