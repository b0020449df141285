// Package master is the control plane of the Carousel block store: a
// daemon that tracks blockserver membership through heartbeats, owns the
// file → stripe → server placement map, detects failures through an
// Alive → Suspect → Dead state machine, and supervises automatic repair —
// scheduling Store.RecoverServer passes onto newcomers and periodic
// Store.Scrub sweeps through a background task scheduler with per-class
// concurrency caps, priorities, checkpoint/resume, and per-task bandwidth
// budgets. Placement and tasks persist in a crash-safe append-only
// journal with snapshot compaction, so a master restart recovers its
// state (and resumes partially completed passes) without re-scanning the
// cluster; membership re-forms from the daemons' next heartbeats.
//
// The control protocol is JSON over HTTP/1.1: one small message per
// heartbeat interval per daemon needs nothing net/http does not already
// do. Every route is a POST whose request and reply bodies each carry
// their CRC32C in the X-Carousel-Crc32c header; a body is bounded at
// maxFrame and checked before any byte of it is decoded.
//
//	/beat    NodeInfo     → RegisterAck    register or heartbeat (one transition)
//	/leave   DrainRequest → DrainReply     daemon shutdown or operator drain
//	/place   PlaceRequest → PlaceReply     assign or look up a file's servers
//	/status  {}           → ClusterStatus  the cluster view for carouselctl
//
// A refused request answers 400 (bad body) or 422 (the master said no)
// with an errorBody; the connection stays open either way.
package master

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"carousel/internal/frame"
)

// maxFrame bounds a control-plane body (16 MiB — status pages and
// placement lists are small; this only guards against bogus peers).
const maxFrame = 1 << 24

// crcHeader carries a body's CRC32C, in hex, in both directions.
const crcHeader = "X-Carousel-Crc32c"

// errFrame marks a damaged or oversized control body.
var errFrame = errors.New("master: bad control body")

// ErrRemote wraps in-band errors reported by the master.
var ErrRemote = errors.New("master: remote error")

// encode marshals v into a body and its crcHeader value.
func encode(v any) ([]byte, string, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, "", err
	}
	return body, strconv.FormatUint(uint64(frame.Checksum(body)), 16), nil
}

// readBody reads a body of at most maxFrame bytes and checks it against
// its crcHeader, so nothing is decoded from a damaged or oversized one.
func readBody(r io.Reader, h http.Header) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxFrame+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxFrame {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", errFrame, maxFrame)
	}
	sum, err := strconv.ParseUint(h.Get(crcHeader), 16, 32)
	if err != nil || uint32(sum) != frame.Checksum(body) {
		return nil, fmt.Errorf("%w: checksum mismatch", errFrame)
	}
	return body, nil
}

// errorBody is the payload of a refused request.
type errorBody struct {
	Error string `json:"error"`
}

// NodeInfo is what a blockserver reports when registering and on every
// heartbeat: its dialable block-service address plus capacity and
// obs-derived health counters, so the master's placement and status views
// stay current without a separate scrape.
type NodeInfo struct {
	// Addr is the block-service address clients and repair passes dial —
	// the member's identity.
	Addr string `json:"addr"`
	// Blocks and BlockBytes report stored capacity in use.
	Blocks     int64 `json:"blocks"`
	BlockBytes int64 `json:"block_bytes"`
	// CorruptServes counts requests the server answered with a corrupt
	// verdict — bit rot pressure, a scrub-priority signal.
	CorruptServes int64 `json:"corrupt_serves"`
	// ObsAddr is the node's observability HTTP endpoint ("" when disabled),
	// where carouselctl trace collects its spans.
	ObsAddr string `json:"obs_addr,omitempty"`
	// RPCP99NS is the windowed p99 of server-side RPC latency.
	RPCP99NS int64 `json:"rpc_p99_ns,omitempty"`
	// QueueDepth is the number of requests in flight at snapshot time.
	QueueDepth int64 `json:"queue_depth,omitempty"`
	// BytesTx is the cumulative bytes the node has served; the master
	// derives a throughput rate from consecutive beats.
	BytesTx int64 `json:"bytes_tx,omitempty"`
}

// RegisterAck is the master's reply to a beat: the heartbeat interval the daemon should run at and the master's epoch
// (start time), so a daemon can notice master restarts in its logs.
type RegisterAck struct {
	IntervalMS int64 `json:"interval_ms"`
	Epoch      int64 `json:"epoch_unix_nano"`
}

// Interval returns the acked heartbeat interval.
func (a RegisterAck) Interval() time.Duration {
	return time.Duration(a.IntervalMS) * time.Millisecond
}

// PlaceRequest asks the master to place a file (Addrs empty: the master
// picks n alive servers, capacity-balanced), to record an explicit
// placement (Addrs given, as when a client already wrote through a
// manually configured Store), or to look an existing file up (a repeated
// request by name returns the current placement, newcomer substitutions
// included).
type PlaceRequest struct {
	Name      string   `json:"name"`
	Size      int      `json:"size"`
	BlockSize int      `json:"block_size"`
	Addrs     []string `json:"addrs,omitempty"`
}

// PlaceReply is the recorded placement: block i of every stripe lives on
// Addrs[i].
type PlaceReply struct {
	Name      string   `json:"name"`
	Size      int      `json:"size"`
	BlockSize int      `json:"block_size"`
	Addrs     []string `json:"addrs"`
}

// DrainRequest names a member that is leaving — a daemon shutting down
// cleanly or one an operator drains — whose blocks should move off.
type DrainRequest struct {
	Addr string `json:"addr"`
}

// DrainReply reports how many files the departure touches.
type DrainReply struct {
	Files int `json:"files"`
}

// MemberStatus is one member's row in the cluster view.
type MemberStatus struct {
	Addr          string `json:"addr"`
	State         string `json:"state"`
	LastBeatAgoMS int64  `json:"last_beat_ago_ms"`
	Blocks        int64  `json:"blocks"`
	BlockBytes    int64  `json:"block_bytes"`
	CorruptServes int64  `json:"corrupt_serves"`
	Flaps         int    `json:"flaps"`
	// Health piggybacked from the member's last beat; TxRateBps is derived
	// by the master from consecutive BytesTx samples.
	ObsAddr    string `json:"obs_addr,omitempty"`
	RPCP99NS   int64  `json:"rpc_p99_ns,omitempty"`
	QueueDepth int64  `json:"queue_depth,omitempty"`
	TxRateBps  int64  `json:"tx_rate_bps,omitempty"`
}

// TaskStatus is one scheduler task's row in the cluster view.
type TaskStatus struct {
	ID             uint64 `json:"id"`
	Class          string `json:"class"`
	State          string `json:"state"`
	Server         string `json:"server,omitempty"`
	Items          int    `json:"items"`
	Checkpoint     int    `json:"checkpoint"`
	BlocksRepaired int64  `json:"blocks_repaired"`
	Err            string `json:"err,omitempty"`
}

// ClusterStatus is the master's full view: membership and its roll-up,
// files under management, and the task queue — what carouselctl cluster
// status and top print and what the chaos tests poll.
type ClusterStatus struct {
	Epoch   int64          `json:"epoch_unix_nano"`
	Members []MemberStatus `json:"members"`
	Files   int            `json:"files"`
	Pending int            `json:"pending_tasks"`
	Running int            `json:"running_tasks"`
	Tasks   []TaskStatus   `json:"tasks"`
	Rollup  Rollup         `json:"rollup"`
}

// ObsAddrs returns the members' observability endpoints, deduplicated, in
// member order — the scrape targets carouselctl trace collects from.
func (cs *ClusterStatus) ObsAddrs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, mem := range cs.Members {
		if a := mem.ObsAddr; a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Member returns the row for addr, or nil.
func (cs *ClusterStatus) Member(addr string) *MemberStatus {
	for i := range cs.Members {
		if cs.Members[i].Addr == addr {
			return &cs.Members[i]
		}
	}
	return nil
}
