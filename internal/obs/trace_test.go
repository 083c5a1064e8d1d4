package obs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// scriptedClock gives a tracer a deterministic clock: every read advances
// time by step, so span starts and durations are exact.
func scriptedClock(tr *Tracer, step time.Duration) {
	t0 := time.Unix(1000, 0)
	tr.start = t0
	ticks := 0
	tr.clock = func() time.Time {
		ticks++
		return t0.Add(time.Duration(ticks) * step)
	}
}

func TestSpanTreeContextPropagation(t *testing.T) {
	tr := NewTracer(nil)
	ctx, root := tr.StartSpanCtx(context.Background(), "root")
	childCtx, child := tr.StartSpanCtx(ctx, "child")
	_, grand := tr.StartSpanCtx(childCtx, "grandchild")
	// A sibling started from the root context parents under root, not child.
	_, sib := tr.StartSpanCtx(ctx, "sibling")
	grand.End()
	sib.End()
	child.End()
	root.End()

	recs := tr.Spans()
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent = %d, want child %d", byName["grandchild"].Parent, byName["child"].ID)
	}
	if byName["sibling"].Parent != byName["root"].ID {
		t.Errorf("sibling parent = %d, want root %d", byName["sibling"].Parent, byName["root"].ID)
	}
	for _, r := range recs {
		if r.Open {
			t.Errorf("span %q still open after End", r.Name)
		}
	}
}

// The span tree must survive a worker-pool fan-out: children started from
// the same context on many goroutines all parent under the same span.
func TestSpanTreeAcrossGoroutines(t *testing.T) {
	tr := NewTracer(nil)
	ctx, batch := tr.StartSpanCtx(context.Background(), "batch")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, s := tr.StartSpanCtx(ctx, "task")
			s.Annotate(F("n", 1))
			s.End()
		}()
	}
	wg.Wait()
	batch.End()

	tasks := 0
	for _, r := range tr.Spans() {
		if r.Name != "task" {
			continue
		}
		tasks++
		if r.Parent != batch.id {
			t.Errorf("task parent = %d, want batch %d", r.Parent, batch.id)
		}
	}
	if tasks != 8 {
		t.Fatalf("recorded %d task spans, want 8", tasks)
	}
}

// A foreign span in the context (from another tracer) must not become the
// parent — span IDs are tracer-local.
func TestSpanCtxIgnoresForeignTracer(t *testing.T) {
	other := NewTracer(nil)
	_, foreign := other.StartSpanCtx(context.Background(), "foreign")
	ctx := WithSpan(context.Background(), foreign)

	tr := NewTracer(nil)
	_, s := tr.StartSpanCtx(ctx, "mine")
	s.End()
	recs := tr.Spans()
	if len(recs) != 1 || recs[0].Parent != 0 {
		t.Fatalf("span parented under a foreign tracer's span: %+v", recs)
	}
}

// Instrumentation must be free when tracing is off: a nil tracer's
// StartSpanCtx allocates nothing and returns the context unchanged.
func TestNilTracerSpanCtxZeroAlloc(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, s := tr.StartSpanCtx(ctx, "noop")
		if c != ctx {
			t.Fatal("nil tracer changed the context")
		}
		s.Annotate(F("k", 1))
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer span cost %v allocs, want 0", allocs)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil tracer WriteChromeTrace: %v", err)
	}
}

func TestSpanRecordCap(t *testing.T) {
	tr := NewTracer(nil)
	scriptedClock(tr, time.Millisecond)
	var last time.Duration
	for i := 0; i < maxSpanRecords+10; i++ {
		last = tr.StartSpan("s").End()
	}
	if got := len(tr.Spans()); got != maxSpanRecords {
		t.Fatalf("recorded %d spans, want cap %d", got, maxSpanRecords)
	}
	if got := tr.DroppedSpans(); got != 10 {
		t.Fatalf("dropped %d spans, want 10", got)
	}
	// A span past the cap still times its interval: one clock tick from
	// start to end.
	if last != time.Millisecond {
		t.Fatalf("span past the cap timed %v, want 1ms", last)
	}
}

// The golden Chrome export: a scripted clock makes every timestamp exact,
// so the bytes served by /debug/trace/{id} are asserted verbatim. Refresh
// with UPDATE_GOLDEN=1 go test -run ChromeTraceGolden -count=1 ./internal/obs
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracer(nil)
	scriptedClock(tr, 10*time.Millisecond)
	tr.SetTraceID("deadbeefcafe0123")

	ctx, job := tr.StartSpanCtx(context.Background(), "job")
	_, queued := tr.StartSpanCtx(ctx, "queued")
	queued.End()
	runCtx, run := tr.StartSpanCtx(ctx, "run")
	iterCtx, iter := tr.StartSpanCtx(runCtx, "iter")
	_, batch := tr.StartSpanCtx(iterCtx, "sym.batch")
	batch.Annotate(F("tasks", 64), F("workers", 4))
	batch.End()
	iter.Annotate(F("paths", 12))
	iter.End()
	run.End()
	job.End()
	_, open := tr.StartSpanCtx(ctx, "dangling")
	_ = open // deliberately left open: exports with "open": true

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_trace.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// The export groups spans onto virtual threads by root ancestor and tags
// every event with pid 1; sanity-check the structural invariants Perfetto
// relies on.
func TestChromeTraceStructure(t *testing.T) {
	tr := NewTracer(nil)
	ctx, a := tr.StartSpanCtx(context.Background(), "a")
	_, a1 := tr.StartSpanCtx(ctx, "a1")
	a1.End()
	a.End()
	b := tr.StartSpan("b")
	b.End()

	events := tr.ChromeTrace()
	var meta, complete int
	tids := map[uint64]bool{}
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur == nil {
				t.Errorf("complete event %q missing dur", ev.Name)
			}
			tids[ev.Tid] = true
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.Pid != 1 {
			t.Errorf("event %q pid = %d, want 1", ev.Name, ev.Pid)
		}
	}
	if complete != 3 {
		t.Errorf("got %d X events, want 3", complete)
	}
	// process_name + one thread_name per root span (a and b).
	if meta != 3 {
		t.Errorf("got %d M events, want 3", meta)
	}
	if len(tids) != 2 {
		t.Errorf("got %d distinct tids, want 2 (one per root span)", len(tids))
	}
}
