package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// maxSpanRecords bounds the per-tracer span tree. A runaway run (millions
// of pool batches) must not hold the whole tree in memory; past the cap,
// spans still time their interval but stop being recorded, and the tracer
// counts how many were dropped.
const maxSpanRecords = 1 << 16

// SpanRecord is one completed (or still-open) span in the tracer's span
// tree. Start and Dur are offsets from the tracer's start time, so a whole
// tree serializes without absolute timestamps.
type SpanRecord struct {
	ID     uint64
	Parent uint64 // 0 = root
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Field
	Open   bool // still running when the tree was read
}

// Tracer keeps a bounded span tree (parent/child links plus attributes,
// exportable as Chrome trace_event JSON via WriteChromeTrace). When
// constructed with a non-nil writer it also renders each event, span end
// and profiler iteration as one indented text line (the `p4wn profile -v`
// output). The span tree is all it retains: a run's stage times and
// iteration records belong to the profiler's stats.
//
// A nil *Tracer is the default and records nothing; every method checks the
// receiver first, so instrumented code never branches on "is tracing
// enabled" itself. Its spans still time their interval, so a span's End is
// the one clock read for a stage whether or not tracing is on.
type Tracer struct {
	mu      sync.Mutex
	w       io.Writer
	start   time.Time
	depth   int
	traceID string

	// span tree
	nextSpan uint64
	recs     []SpanRecord
	recIdx   map[uint64]int // span ID -> index into recs
	dropped  int64          // spans not recorded past maxSpanRecords

	// clock is swappable in tests so golden trace exports are
	// deterministic; nil means time.Now.
	clock func() time.Time
}

// NewTracer builds a tracer. w may be nil to collect silently (span tree
// only, no text output).
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, start: time.Now()}
}

func (t *Tracer) now() time.Time {
	if t.clock != nil {
		return t.clock()
	}
	return time.Now()
}

// SetTraceID tags the tracer with a request-scoped trace identifier; it is
// carried into the Chrome export and the daemon's structured logs.
func (t *Tracer) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the tracer's trace identifier ("" for a nil tracer).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// Event renders one structured event as a text line. Nil-safe and
// allocation-free when the tracer is nil (the variadic slice stays on the
// caller's stack); a tracer without a writer drops it.
func (t *Tracer) Event(scope, msg string, fields ...Field) {
	if t == nil || t.w == nil {
		return
	}
	t.mu.Lock()
	t.line(scope, msg, fields)
	t.mu.Unlock()
}

// line renders one event line; caller holds t.mu.
func (t *Tracer) line(scope, msg string, fields []Field) {
	var b strings.Builder
	fmt.Fprintf(&b, "[%8.3fs] %s%s: %s", t.now().Sub(t.start).Seconds(),
		strings.Repeat("  ", t.depth), scope, msg)
	for _, f := range fields {
		fmt.Fprintf(&b, " %s=%g", f.Key, f.Val)
	}
	b.WriteByte('\n')
	io.WriteString(t.w, b.String())
}

// Span is an open trace region. A span from a nil tracer keeps only its
// start time: End returns the elapsed time and records nothing. The zero
// Span returns 0. End may be called exactly once.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
	id    uint64
}

// spanCtxKey carries the current Span through a context chain.
type spanCtxKey struct{}

// WithSpan returns a context carrying s as the current span; children
// started via StartSpanCtx parent under it.
func WithSpan(ctx context.Context, s Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx (the zero Span if none).
func SpanFromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	s, _ := ctx.Value(spanCtxKey{}).(Span)
	return s
}

// StartSpan opens a named root-level span. Nested spans indent the -v
// output.
func (t *Tracer) StartSpan(name string) Span {
	return t.startSpan(name, 0)
}

// StartSpanCtx opens a named span parented under the span carried by ctx
// (root-level if none) and returns a derived context carrying the new span,
// so the tree survives function and worker-pool boundaries. A nil tracer
// returns ctx unchanged and an unrecorded span without allocating.
func (t *Tracer) StartSpanCtx(ctx context.Context, name string) (context.Context, Span) {
	if t == nil {
		return ctx, Span{start: time.Now()}
	}
	var parent uint64
	if p := SpanFromContext(ctx); p.t == t {
		parent = p.id
	}
	s := t.startSpan(name, parent)
	return WithSpan(ctx, s), s
}

func (t *Tracer) startSpan(name string, parent uint64) Span {
	if t == nil {
		return Span{start: time.Now()}
	}
	start := t.now()
	t.mu.Lock()
	t.depth++
	t.nextSpan++
	id := t.nextSpan
	if len(t.recs) < maxSpanRecords {
		if t.recIdx == nil {
			t.recIdx = make(map[uint64]int)
		}
		t.recIdx[id] = len(t.recs)
		t.recs = append(t.recs, SpanRecord{
			ID:     id,
			Parent: parent,
			Name:   name,
			Start:  start.Sub(t.start),
			Open:   true,
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return Span{t: t, name: name, start: start, id: id}
}

// Annotate attaches key/value attributes to the span's record. No-op for a
// span from a nil tracer or one that fell past the record cap.
func (s Span) Annotate(attrs ...Field) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if i, ok := s.t.recIdx[s.id]; ok {
		s.t.recs[i].Attrs = append(s.t.recs[i].Attrs, attrs...)
	}
	s.t.mu.Unlock()
}

// End closes the span and returns its duration (0 for the zero Span).
func (s Span) End() time.Duration {
	if s.t == nil {
		if s.start.IsZero() {
			return 0
		}
		return time.Since(s.start)
	}
	d := s.t.now().Sub(s.start)
	s.t.mu.Lock()
	if s.t.depth > 0 {
		s.t.depth--
	}
	if i, ok := s.t.recIdx[s.id]; ok {
		s.t.recs[i].Dur = d
		s.t.recs[i].Open = false
	}
	if s.t.w != nil {
		s.t.line(s.name, fmt.Sprintf("done in %.3fs", d.Seconds()), nil)
	}
	s.t.mu.Unlock()
	return d
}

// Spans returns a copy of the recorded span tree in start order (the order
// spans were opened). Open spans are reported with their duration so far.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.recs))
	copy(out, t.recs)
	for i := range out {
		if out[i].Open {
			out[i].Dur = now.Sub(t.start) - out[i].Start
		}
		out[i].Attrs = append([]Field(nil), out[i].Attrs...)
	}
	return out
}

// DroppedSpans returns how many spans fell past the record cap.
func (t *Tracer) DroppedSpans() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// IterationRecord is one main-loop iteration of the profiler: the
// per-iteration visibility the paper's Figures 7-9 are built from.
type IterationRecord struct {
	Iter        int     `json:"iter"`
	Paths       int     `json:"paths"`         // live paths after the step
	MergedTo    int     `json:"merged_to"`     // live paths after merging
	PrunedPaths int     `json:"pruned_paths"`  // cumulative statically-pruned paths
	Forks       int     `json:"forks"`         // cumulative engine forks
	Constraints int     `json:"constraints"`   // open path-condition size, summed
	MaxDiff     float64 `json:"max_diff"`      // L-inf distance vs previous profile
	Stable      int     `json:"stable_rounds"` // consecutive epsilon-stable rounds
	MCQueries   int     `json:"mc_queries"`    // cumulative model-counter queries
	MCHitRate   float64 `json:"mc_cache_hit_rate"`
	SymSec      float64 `json:"sym_sec"`
	UpdateSec   float64 `json:"update_sec"`
	MergeSec    float64 `json:"merge_sec"`
}

// Iteration renders one profiler iteration as a single trace line when a
// writer is attached. The record is not kept; the profiler's stats own the
// trajectory.
func (t *Tracer) Iteration(rec IterationRecord) {
	if t == nil || t.w == nil {
		return
	}
	t.mu.Lock()
	fmt.Fprintf(t.w,
		"[%8.3fs] iter %2d: paths=%d merged=%d forks=%d cons=%d maxdiff=%.2e stable=%d mc(q=%d hit=%.0f%%) sym=%.3fs update=%.3fs merge=%.3fs\n",
		t.now().Sub(t.start).Seconds(), rec.Iter, rec.Paths, rec.MergedTo,
		rec.Forks, rec.Constraints, rec.MaxDiff, rec.Stable,
		rec.MCQueries, rec.MCHitRate*100, rec.SymSec, rec.UpdateSec, rec.MergeSec)
	t.mu.Unlock()
}

// Depth returns the current span nesting depth (for tests).
func (t *Tracer) Depth() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.depth
}
