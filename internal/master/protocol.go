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
// The wire protocol reuses the block path's framed-TCP shape — every
// payload is length-prefixed and CRC32C-checksummed — with JSON bodies,
// since control traffic is low-rate and benefits from being greppable:
//
//	request  := op(1) payloadLen(4) payloadCRC32C(4) payload
//	response := status(1) payloadLen(4) payloadCRC32C(4) payload
//
// Operations: register, heartbeat, deregister (clean drain on daemon
// shutdown), place (assign or look up a file's servers), status (cluster
// view for carouselctl), drain (operator-initiated move-off).
package master

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// Operation codes.
const (
	opRegister byte = iota + 1
	opHeartbeat
	opDeregister
	opPlace
	opStatus
	opDrain
)

// Status codes.
const (
	statusOK byte = iota
	statusError
)

// maxFrame bounds a control-plane payload (16 MiB — status pages and
// placement lists are small; this only guards against bogus prefixes).
const maxFrame = 1 << 24

// castagnoli matches the block path's frame checksum polynomial.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errFrame marks a damaged or oversized control frame; the connection is
// unusable afterwards.
var errFrame = errors.New("master: bad control frame")

// ErrRemote wraps in-band errors reported by the master.
var ErrRemote = errors.New("master: remote error")

// writeMsg sends one tagged, framed JSON message: the op (or status) byte
// followed by a checksummed length-prefixed payload.
func writeMsg(w io.Writer, tag byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	hdr := make([]byte, 9, 9+len(payload))
	hdr[0] = tag
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, castagnoli))
	_, err = w.Write(append(hdr, payload...))
	return err
}

// errHandled signals that a request failed but the error was already
// reported in-band; the connection stays usable.
var errHandled = errors.New("master: handled in-band")

// readRaw reads one framed message, returning the tag and the raw payload
// for later decoding (the server dispatches on the op byte first).
func readRaw(r io.Reader, out *[]byte) (byte, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > maxFrame {
		return 0, fmt.Errorf("%w: %d-byte frame exceeds limit", errFrame, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(hdr[5:9]) {
		return 0, fmt.Errorf("%w: checksum mismatch", errFrame)
	}
	*out = payload
	return hdr[0], nil
}

// decode unmarshals a raw payload, normalizing the error.
func decode(raw []byte, v any) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("master: decoding request: %v", err)
	}
	return nil
}

// errorBody is the payload of a statusError response.
type errorBody struct {
	Error string `json:"error"`
}

// TraceContext optionally links a control-plane request into the caller's
// span tree: a master that understands it parents its server-side span
// under the client's. Version tolerance is free here — JSON decoding
// ignores fields an old master does not know, and omitempty keeps old-style
// requests byte-identical when no trace is active.
type TraceContext struct {
	TraceID      uint64 `json:"trace_id,omitempty"`
	ParentSpanID uint64 `json:"parent_span_id,omitempty"`
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
	// ObsAddr is the node's observability HTTP endpoint ("" when disabled).
	// Its presence also marks the health fields below as meaningful — old
	// daemons send neither, and the master's roll-ups skip them.
	ObsAddr string `json:"obs_addr,omitempty"`
	// RPCP99NS is the windowed p99 of server-side RPC latency.
	RPCP99NS int64 `json:"rpc_p99_ns,omitempty"`
	// QueueDepth is the number of requests in flight at snapshot time.
	QueueDepth int64 `json:"queue_depth,omitempty"`
	// BytesTx is the cumulative bytes the node has served; the master
	// derives a throughput rate from consecutive beats.
	BytesTx int64 `json:"bytes_tx,omitempty"`
	// ErrorBudgetPPM is the node's tightest remaining SLO error budget in
	// parts per million (1e6 = untouched).
	ErrorBudgetPPM int64 `json:"error_budget_ppm,omitempty"`
}

// RegisterAck is the master's reply to register and heartbeat: the
// heartbeat interval the daemon should run at and the master's epoch
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
	TraceContext
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

// DrainRequest names a member whose blocks should move off.
type DrainRequest struct {
	TraceContext
	Addr string `json:"addr"`
}

// DrainReply reports how many files the drain touches.
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
	// Health piggybacked from the member's last beat (zero for daemons
	// without an obs endpoint); TxRateBps is derived by the master from
	// consecutive BytesTx samples.
	ObsAddr        string `json:"obs_addr,omitempty"`
	RPCP99NS       int64  `json:"rpc_p99_ns,omitempty"`
	QueueDepth     int64  `json:"queue_depth,omitempty"`
	TxRateBps      int64  `json:"tx_rate_bps,omitempty"`
	ErrorBudgetPPM int64  `json:"error_budget_ppm,omitempty"`
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

// ClusterStatus is the master's full view: membership, files under
// management, and the task queue — what carouselctl cluster status prints
// and what the chaos tests poll.
type ClusterStatus struct {
	Epoch   int64          `json:"epoch_unix_nano"`
	Members []MemberStatus `json:"members"`
	Files   int            `json:"files"`
	Pending int            `json:"pending_tasks"`
	Running int            `json:"running_tasks"`
	Tasks   []TaskStatus   `json:"tasks"`
	// MasterObsAddr is the master's own observability endpoint ("" when
	// disabled); with the members' ObsAddr fields it gives carouselctl the
	// full scrape-target set for trace stitching and the top view.
	MasterObsAddr string `json:"master_obs_addr,omitempty"`
}

// ObsAddrs returns every observability endpoint in the cluster view — the
// members' plus the master's own — deduplicated, in member order.
func (cs *ClusterStatus) ObsAddrs() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, mem := range cs.Members {
		add(mem.ObsAddr)
	}
	add(cs.MasterObsAddr)
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
