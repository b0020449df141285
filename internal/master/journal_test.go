package master

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carousel/internal/frame"
)

// TestJournalRoundTrip: records appended before a crash are all there
// after reopening, applied in order.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Files) != 0 || len(st.Tasks) != 0 {
		t.Fatalf("fresh journal not empty: %+v", st)
	}
	recs := []*record{
		{T: "file", File: &placement{Name: "f1", Size: 100, BlockSize: 10, Addrs: []string{"a", "b", "c"}}},
		{T: "task", Task: &Task{ID: 1, Class: ClassRecover, State: TaskPending, Server: "b",
			Items: []TaskItem{{File: "f1", Size: 100, BlockSize: 10, Addrs: []string{"a", "x", "c"}, Failed: 1}}}},
		{T: "move", Move: &moveRec{Name: "f1", Idx: 1, Addr: "x"}},
		{T: "state", St: &stateRec{ID: 1, State: TaskRunning}},
		{T: "ckpt", Ckpt: &ckptRec{ID: 1, Done: 1, Blocks: 42}},
		{T: "state", St: &stateRec{ID: 1, State: TaskDone}},
	}
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.close() // crash-equivalent: no compaction, reopen replays

	_, st2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := st2.Files["f1"]
	if f == nil || f.Addrs[1] != "x" {
		t.Fatalf("replayed placement: %+v", f)
	}
	task := st2.Tasks[1]
	if task == nil || task.State != TaskDone || task.Checkpoint != 1 || task.BlocksRepaired != 42 {
		t.Fatalf("replayed task: %+v", task)
	}
	if st2.NextTaskID != 2 {
		t.Fatalf("NextTaskID = %d, want 2", st2.NextTaskID)
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn frame; reopening
// keeps every intact record, drops the tail, and the journal accepts new
// appends cleanly.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(&record{T: "file", File: &placement{Name: "f1", Size: 1, BlockSize: 1, Addrs: []string{"a"}}}); err != nil {
		t.Fatal(err)
	}
	j.close()

	// Tear the tail: half a frame of garbage.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 99, 1, 2})
	f.Close()
	before, _ := os.Stat(path)

	j2, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Files["f1"]; !ok {
		t.Fatal("intact record lost with the torn tail")
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// New appends after truncation replay fine.
	if err := j2.append(&record{T: "file", File: &placement{Name: "f2", Size: 1, BlockSize: 1, Addrs: []string{"b"}}}); err != nil {
		t.Fatal(err)
	}
	j2.close()
	_, st3, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st3.Files) != 2 {
		t.Fatalf("after torn-tail recovery + append: %d files, want 2", len(st3.Files))
	}
}

// TestJournalCompaction: compaction snapshots the state and truncates the
// journal; a reopen sees identical state from the snapshot alone, and the
// record counter drives compaction automatically past compactEvery.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rec := &record{T: "file", File: &placement{Name: string(rune('a' + i)), Size: 1, BlockSize: 1, Addrs: []string{"x"}}}
		st.apply(rec)
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if j.shouldCompact() {
		t.Fatalf("compaction due after %d records (threshold %d)", j.records, compactEvery)
	}
	j.records = compactEvery // simulate the threshold
	if !j.shouldCompact() {
		t.Fatal("compaction not due at the threshold")
	}
	if err := j.compact(st); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(filepath.Join(dir, journalName)); fi.Size() != 0 {
		t.Fatalf("journal not truncated after compaction: %d bytes", fi.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing after compaction: %v", err)
	}
	j.close()
	_, st2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Files) != 10 {
		t.Fatalf("state from snapshot: %d files, want 10", len(st2.Files))
	}
}

// TestJournalNilSafe: the in-memory master passes a nil journal
// everywhere; every method must no-op.
func TestJournalNilSafe(t *testing.T) {
	var j *journal
	if err := j.append(&record{T: "file"}); err != nil {
		t.Fatal(err)
	}
	if j.shouldCompact() {
		t.Fatal("nil journal wants compaction")
	}
	if err := j.compact(newMasterState()); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
}

// journalOf appends recs to a fresh journal under a temporary directory
// and returns the directory and the journal file's bytes.
func journalOf(t *testing.T, recs ...*record) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, raw
}

func fileRec(name string) *record {
	return &record{T: "file", File: &placement{Name: name, Size: 1, BlockSize: 1, Addrs: []string{"a"}}}
}

// TestJournalMidCorruptionIsRefused: damage that a crash mid-append cannot
// leave — a bad payload CRC with records after it, a header that does not
// verify, a journal in another format — is refused with its offset, and
// the file is left byte-identical rather than cut back to the damage.
func TestJournalMidCorruptionIsRefused(t *testing.T) {
	dir, raw := journalOf(t, fileRec("f1"), fileRec("f2"), fileRec("f3"))
	rec := len(raw) / 3 // the three records encode to the same length
	path := filepath.Join(dir, journalName)
	// The journal format before the frame header existed: each record was
	// payloadLen(4) payloadCRC(4) payload.
	var lengthAndCRC []byte
	for _, r := range []*record{fileRec("f1"), fileRec("f2")} {
		payload, _ := json.Marshal(r)
		lengthAndCRC = binary.BigEndian.AppendUint32(lengthAndCRC, uint32(len(payload)))
		lengthAndCRC = binary.BigEndian.AppendUint32(lengthAndCRC, frame.Checksum(payload))
		lengthAndCRC = append(lengthAndCRC, payload...)
	}
	for _, c := range []struct {
		name   string
		damage func([]byte) []byte
		offset int
	}{
		{"payload of record 2 of 3", func(b []byte) []byte { b[2*rec-3] ^= 0x01; return b }, rec},
		{"header of record 2 of 3", func(b []byte) []byte { b[rec+1] ^= 0x80; return b }, rec},
		{"header of the last record", func(b []byte) []byte { b[2*rec+4] ^= 0x10; return b }, 2 * rec},
		{"length-and-CRC framing", func([]byte) []byte { return bytes.Clone(lengthAndCRC) }, 0},
	} {
		bad := c.damage(bytes.Clone(raw))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := openJournal(dir)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", c.offset)) {
			t.Errorf("%s: openJournal = %v, want a corruption error at offset %d", c.name, err, c.offset)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
			t.Errorf("%s: a refused journal was modified", c.name)
		}
	}
}

// TestJournalZeroTail: the zeros a crash can leave past the last append —
// file size extended, data never written — are a torn tail: every record
// survives and the zeros are cut away.
func TestJournalZeroTail(t *testing.T) {
	dir, raw := journalOf(t, fileRec("f1"), fileRec("f2"))
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, append(bytes.Clone(raw), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	if len(st.Files) != 2 {
		t.Fatalf("after a zero tail: %d files, want 2", len(st.Files))
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
		t.Fatalf("zero tail not truncated: %d bytes, want %d", len(after), len(raw))
	}
}

// FuzzJournalReplay: openJournal over arbitrary bytes either refuses them
// and leaves the file byte-identical, or keeps a prefix of them that a
// second open replays to the same state without cutting anything more.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []*record{fileRec("f1"), {T: "move", Move: &moveRec{Name: "f1", Idx: 0, Addr: "x"}}} {
		if err := j.append(r); err != nil {
			f.Fatal(err)
		}
	}
	j.close()
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-5])
	f.Add(append(bytes.Clone(raw), 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, st, err := openJournal(dir)
		kept, _ := os.ReadFile(path)
		if err != nil {
			if !bytes.Equal(kept, data) {
				t.Fatalf("refused journal was modified: %v", err)
			}
			return
		}
		j.close()
		if !bytes.HasPrefix(data, kept) {
			t.Fatal("replay kept bytes that are not a prefix of the journal")
		}
		j2, st2, err := openJournal(dir)
		if err != nil {
			t.Fatalf("reopening the kept prefix: %v", err)
		}
		j2.close()
		again, _ := os.ReadFile(path)
		a, _ := json.Marshal(st)
		b, _ := json.Marshal(st2)
		if !bytes.Equal(again, kept) || j2.records != j.records || !bytes.Equal(a, b) {
			t.Fatal("the kept prefix does not replay to the same state")
		}
	})
}
