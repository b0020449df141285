package master

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"carousel/internal/frame"
)

// The master persists placement and tasks in an append-only journal plus
// a snapshot: every mutation (file placed, block moved to a newcomer,
// task created, checkpoint advanced, task state changed) appends one
// JSON record, framed by internal/frame, and is fsynced before the
// mutation is acknowledged, so a crash loses nothing acknowledged. On
// restart the snapshot is loaded and the journal replayed on top; a torn
// tail (crash mid-append) is truncated away, and damage anywhere else is
// refused (see replay).
// Heartbeats are deliberately NOT journaled — membership is soft state
// that re-forms from the daemons' next beats — which keeps the append
// rate proportional to cluster events, not cluster size.
//
// When the journal grows past compactEvery records the state is
// re-snapshotted (write temp, fsync, rename) and the journal truncated:
// snapshot compaction, so recovery time is bounded by live state, not
// history.

// journalName and snapshotName are the files inside the master's data
// directory.
const (
	journalName  = "journal.log"
	snapshotName = "snapshot.json"
	compactEvery = 512
)

// record is one journal entry; exactly one pointer field is set, selected
// by T.
type record struct {
	T    string     `json:"t"`
	File *placement `json:"file,omitempty"`
	Move *moveRec   `json:"move,omitempty"`
	Task *Task      `json:"task,omitempty"`
	Ckpt *ckptRec   `json:"ckpt,omitempty"`
	St   *stateRec  `json:"state,omitempty"`
}

// moveRec relocates one block index of a file to a newcomer.
type moveRec struct {
	Name string `json:"name"`
	Idx  int    `json:"idx"`
	Addr string `json:"addr"`
}

// ckptRec advances a task's resume point: Done items are complete and
// Blocks is the cumulative repaired-block count across runs.
type ckptRec struct {
	ID     uint64 `json:"id"`
	Done   int    `json:"done"`
	Blocks int64  `json:"blocks"`
}

// stateRec records a task lifecycle edge.
type stateRec struct {
	ID    uint64 `json:"id"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
}

// masterState is everything the journal reconstructs: the placement map
// and the task table.
type masterState struct {
	Files      map[string]*placement `json:"files"`
	Tasks      map[uint64]*Task      `json:"tasks"`
	NextTaskID uint64                `json:"next_task_id"`
}

func newMasterState() *masterState {
	return &masterState{Files: make(map[string]*placement), Tasks: make(map[uint64]*Task), NextTaskID: 1}
}

// apply folds one record into the state — the single definition of what
// each record means, shared by replay and (implicitly) by the live code
// paths that append them.
func (st *masterState) apply(rec *record) {
	switch {
	case rec.File != nil:
		st.Files[rec.File.Name] = rec.File
	case rec.Move != nil:
		if f, ok := st.Files[rec.Move.Name]; ok && rec.Move.Idx >= 0 && rec.Move.Idx < len(f.Addrs) {
			f.Addrs[rec.Move.Idx] = rec.Move.Addr
		}
	case rec.Task != nil:
		st.Tasks[rec.Task.ID] = rec.Task
		if rec.Task.ID >= st.NextTaskID {
			st.NextTaskID = rec.Task.ID + 1
		}
	case rec.Ckpt != nil:
		if t, ok := st.Tasks[rec.Ckpt.ID]; ok {
			t.Checkpoint = rec.Ckpt.Done
			t.BlocksRepaired = rec.Ckpt.Blocks
		}
	case rec.St != nil:
		if t, ok := st.Tasks[rec.St.ID]; ok {
			t.State = rec.St.State
			t.Err = rec.St.Err
		}
	}
}

// journal is the append side. A nil *journal is valid and persists
// nothing — the in-memory mode tests and ephemeral clusters use.
type journal struct {
	dir     string
	f       *os.File
	records int // appended since the last snapshot
}

// openJournal loads (snapshot + replay) the state under dir and returns
// the journal positioned for appends. A missing directory is created;
// missing files mean a fresh master.
func openJournal(dir string) (*journal, *masterState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("master: journal dir: %w", err)
	}
	st := newMasterState()
	if raw, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		if err := json.Unmarshal(raw, st); err != nil {
			return nil, nil, fmt.Errorf("master: snapshot corrupt: %w", err)
		}
		if st.Files == nil {
			st.Files = make(map[string]*placement)
		}
		if st.Tasks == nil {
			st.Tasks = make(map[uint64]*Task)
		}
		if st.NextTaskID == 0 {
			st.NextTaskID = 1
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("master: reading snapshot: %w", err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("master: opening journal: %w", err)
	}
	n, good, err := replay(f, st)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Truncate a torn tail (crash mid-append) so the next append starts on
	// a clean frame boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("master: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &journal{dir: dir, f: f, records: n}, st, nil
}

// recordKind is the frame kind of a journal record.
const recordKind byte = 'j'

// replay applies every record to st, returning the record count and the
// length of the intact prefix. It stops without error at what a crash
// mid-append can leave: a short final frame, a final frame whose header
// verifies but whose payload is short or fails its CRC, or an all-zero
// tail. Anything else — a damaged frame with bytes after it, a full header
// that does not verify, a record that does not decode — is corruption, and
// replay refuses it with its offset rather than drop the records after it.
func replay(f *os.File, st *masterState) (n int, good int64, err error) {
	raw, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, err
	}
	rd := bytes.NewReader(raw)
	fr := frame.NewReader(rd, maxFrame)
	for {
		var payload []byte
		h, err := fr.Next()
		if err == nil && h.Kind != recordKind {
			err = fmt.Errorf("record kind %d", h.Kind)
		}
		if err == nil {
			payload = make([]byte, h.Len)
			err = fr.Payload(h, payload)
		}
		var rec record
		if err == nil {
			err = json.Unmarshal(payload, &rec)
		}
		switch {
		case err == io.EOF:
			return n, good, nil
		case errors.Is(err, io.ErrUnexpectedEOF),
			errors.Is(err, frame.ErrPayload) && rd.Len() == 0,
			errors.Is(err, frame.ErrHeader) && len(bytes.TrimLeft(raw[good:], "\x00")) == 0:
			return n, good, nil // torn tail
		case err != nil:
			return 0, 0, fmt.Errorf("master: journal corrupt at offset %d: %w", good, err)
		}
		st.apply(&rec)
		n++
		good = int64(len(raw) - rd.Len())
	}
}

// append frames, writes, and fsyncs one record. Callers hold the master
// lock, so records land in mutation order.
func (j *journal) append(rec *record) error {
	if j == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf := frame.Header{Kind: recordKind, Len: len(payload), CRC: frame.Checksum(payload)}.Append(make([]byte, 0, frame.HeaderLen+len(payload)))
	if _, err := j.f.Write(append(buf, payload...)); err != nil {
		return fmt.Errorf("master: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("master: journal sync: %w", err)
	}
	j.records++
	return nil
}

// shouldCompact reports whether the journal has grown enough to warrant
// re-snapshotting.
func (j *journal) shouldCompact() bool {
	return j != nil && j.records >= compactEvery
}

// compact writes a fresh snapshot of st (temp + fsync + rename, so a
// crash leaves either the old or the new snapshot intact) and truncates
// the journal.
func (j *journal) compact(st *masterState) error {
	if j == nil {
		return nil
	}
	raw, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(j.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapshotName)); err != nil {
		return err
	}
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.records = 0
	return nil
}

// close releases the journal file.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}

// placement is one file's home: block i of every stripe lives on
// Addrs[i], exactly the Store's layout.
type placement struct {
	Name      string   `json:"name"`
	Size      int      `json:"size"`
	BlockSize int      `json:"block_size"`
	Addrs     []string `json:"addrs"`
}

// clone deep-copies a placement.
func (p *placement) clone() *placement {
	c := *p
	c.Addrs = append([]string(nil), p.Addrs...)
	return &c
}

// indexOf returns addr's block index in the placement, or -1.
func (p *placement) indexOf(addr string) int {
	for i, a := range p.Addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// sortedFiles returns placements in name order, for deterministic task
// item order (and therefore deterministic checkpoints).
func sortedFiles(files map[string]*placement) []*placement {
	out := make([]*placement, 0, len(files))
	for _, f := range files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
