package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span (stage outcomes, byte counts,
// source indices). Values should be small scalars or short strings.
type Attr struct {
	Key   string
	Value any
}

// SpanRecord is a finished span as kept in the tracer's ring buffer.
type SpanRecord struct {
	Name     string        `json:"name"`
	Trace    uint64        `json:"trace"`
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute, or nil.
func (r SpanRecord) Attr(key string) any {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Span is one in-flight timed operation. Spans form trees: starting a span
// from a context that already carries one makes it a child in the same
// trace. All methods are safe on a nil receiver so instrumented paths
// never need to branch.
type Span struct {
	tracer *Tracer
	name   string
	trace  uint64
	id     uint64
	parent uint64
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// TraceID returns the trace this span belongs to (0 for nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace
}

// ID returns the span's ID (0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttr annotates the span; it returns the span for chaining.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
	return s
}

// End finishes the span and records it into the tracer's ring buffer.
// Ending twice records once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.tracer.record(SpanRecord{
		Name:     s.name,
		Trace:    s.trace,
		ID:       s.id,
		Parent:   s.parent,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    attrs,
	})
}

// Tracer assigns span IDs and keeps the most recent finished spans in a
// fixed ring buffer, the backing store of /debug/traces and of the tests
// that assert a read produced the right stage tree.
type Tracer struct {
	ids atomic.Uint64

	mu   sync.Mutex
	buf  []SpanRecord
	next int
	full bool
}

// NewTracer returns a tracer retaining the last capacity finished spans
// (minimum 16). Span IDs start from a random per-tracer base so that IDs
// minted by different processes do not collide when their spans are
// stitched into one cross-node trace.
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	t := &Tracer{buf: make([]SpanRecord, capacity)}
	t.ids.Store(randomIDBase())
	return t
}

// randomIDBase draws a random span-ID base with the low 24 bits clear: a
// process can mint 16M spans before leaving its private range, and two
// processes picking the same base is a ~2^-40 event per pair.
func randomIDBase() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0 // fall back to sequential IDs from 1
	}
	return binary.BigEndian.Uint64(b[:]) &^ ((1 << 24) - 1) &^ (1 << 63)
}

// defaultTracer backs the package-level StartSpan and /debug/traces.
var defaultTracer = NewTracer(8192)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

type spanCtxKey struct{}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// ContextWithSpan attaches a span to a context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// Start begins a span on this tracer. When ctx carries a span of the same
// tracer the new span joins its trace as a child; otherwise it roots a new
// trace. The returned context carries the new span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{tracer: t, name: name, id: t.ids.Add(1), start: time.Now()}
	if p := SpanFromContext(ctx); p != nil && p.tracer == t {
		s.trace = p.trace
		s.parent = p.id
	} else {
		s.trace = s.id
	}
	return ContextWithSpan(ctx, s), s
}

// StartRemote begins a span that joins a trace rooted on another process:
// trace and parent are the IDs received on the wire. With trace == 0 it
// behaves like Start (roots a new trace), so callers can pass whatever the
// request carried without branching.
func (t *Tracer) StartRemote(ctx context.Context, name string, trace, parent uint64) (context.Context, *Span) {
	if trace == 0 {
		return t.Start(ctx, name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{tracer: t, name: name, id: t.ids.Add(1), start: time.Now(), trace: trace, parent: parent}
	return ContextWithSpan(ctx, s), s
}

// StartSpan begins a span on the tracer of the context's current span, or
// on the default tracer when the context has none.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if p := SpanFromContext(ctx); p != nil {
		return p.tracer.Start(ctx, name)
	}
	return defaultTracer.Start(ctx, name)
}

// ChildSpan begins a span only under a caller's trace: when ctx carries a
// span it is StartSpan, and otherwise it records nothing and returns ctx
// and a nil span, which is inert. Every layer below the one that roots a
// trace opens its spans with it, so an untraced call records no span and
// sends no trace context to start spans elsewhere.
func ChildSpan(ctx context.Context, name string) (context.Context, *Span) {
	p := SpanFromContext(ctx)
	if p == nil {
		return ctx, nil
	}
	return p.tracer.Start(ctx, name)
}

// record appends a finished span to the ring.
func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	t.buf[t.next] = r
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// all returns the retained spans, oldest first.
func (t *Tracer) all() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	if t.full {
		out = append(out, t.buf[t.next:]...)
	}
	out = append(out, t.buf[:t.next]...)
	return out
}

// Spans returns the retained finished spans of one trace, ordered by start
// time (children end before parents, so ring order is end order).
func (t *Tracer) Spans(trace uint64) []SpanRecord {
	var out []SpanRecord
	for _, r := range t.all() {
		if r.Trace == trace {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Recent returns up to max most recent finished spans, newest last.
func (t *Tracer) Recent(max int) []SpanRecord {
	all := t.all()
	if max > 0 && len(all) > max {
		all = all[len(all)-max:]
	}
	return all
}

// TreeString renders a trace's spans as an indented tree — the developer
// view of where a read or repair spent its time.
func TreeString(spans []SpanRecord) string {
	children := make(map[uint64][]SpanRecord)
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	var roots []SpanRecord
	for _, s := range spans {
		if s.Parent != 0 && ids[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	var walk func(s SpanRecord, depth int)
	walk = func(s SpanRecord, depth int) {
		fmt.Fprintf(&b, "%s%s %v", strings.Repeat("  ", depth), s.Name, s.Duration.Round(time.Microsecond))
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
