package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public functions. Spans of one operation share Trace; Parent 0
// marks the operation's root.
type span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Layer  string
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
	Bytes  int64
}

// recorder keeps spans in memory until the run ends. Callers take their
// own timestamps and hand finished spans over, so recording never sits
// inside a timed interval.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// id reserves a span or trace identifier; parents reserve theirs before
// their children run so the children can name them.
func (r *recorder) id() uint64 { return r.next.Add(1) }

func (r *recorder) add(trace, id, parent uint64, layer, name string, t0, t1 time.Time, bytes int64) {
	s := span{trace, id, parent, layer, name, t0.Sub(r.epoch).Nanoseconds(), t1.Sub(r.epoch).Nanoseconds(), bytes}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(w, `{"trace":%d,"id":%d,"parent":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d,"bytes":%d}`+"\n",
			s.Trace, s.ID, s.Parent, s.Layer, s.Name, s.Start, s.End, s.Bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimeByLayer sums, over the given spans, each span's self time — its
// duration minus the part of that interval its children cover — under the
// span's layer, and returns the total duration of the root spans beside
// it. Orphans (a parent that was never recorded) are an error: every span
// has a parent or is a root.
func selfTimeByLayer(spans []span) (self map[string]int64, rootTotal int64, err error) {
	byID := make(map[uint64]*span, len(spans))
	children := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			rootTotal += s.End - s.Start
		} else if byID[s.Parent] == nil {
			return nil, 0, fmt.Errorf("span %d (%s) names parent %d, which was not recorded", s.ID, s.Name, s.Parent)
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Layer] += (s.End - s.Start) - covered
	}
	return self, rootTotal, nil
}
