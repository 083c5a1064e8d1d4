package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The disabled (nil) tracer must cost nothing: no allocations even with
// field arguments, so instrumentation can stay unconditionally inline in
// the profiler's hot loop. Its spans still time their interval, because
// the profiler's stage times come from span.End().
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	var minDur time.Duration = -1
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Event("core", "step", F("paths", 12), F("forks", 3))
		sp := tr.StartSpan("sym")
		for until := time.Now().Add(time.Microsecond); time.Now().Before(until); {
		}
		if d := sp.End(); minDur < 0 || d < minDur {
			minDur = d
		}
		tr.Iteration(IterationRecord{Iter: 1})
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %v per op, want 0", allocs)
	}
	if minDur < time.Microsecond {
		t.Fatalf("nil-tracer span End() = %v after a 1µs wait, want the elapsed time", minDur)
	}
	if d := (Span{}).End(); d != 0 {
		t.Fatalf("zero Span End() = %v, want 0", d)
	}
}

func BenchmarkNilTracerEvent(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Event("core", "step", F("paths", float64(i)))
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Spans() != nil || tr.DroppedSpans() != 0 || tr.Depth() != 0 {
		t.Fatal("nil tracer accessors should return zero values")
	}
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(1)
	reg.Histogram("z").Observe(1)
	reg.SetAll("p", map[string]float64{"a": 1})
	reg.RegisterView("v", func() map[string]float64 { return nil })
	if len(reg.Snapshot()) != 0 {
		t.Fatal("nil registry should snapshot empty")
	}
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge")
	}
	var h *Histogram
	h.Observe(3)
	if n, _, _, _ := h.Summary(); n != 0 {
		t.Fatal("nil histogram")
	}
}

func TestSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	outer := tr.StartSpan("outer")
	if tr.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", tr.Depth())
	}
	inner := tr.StartSpan("inner")
	if tr.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", tr.Depth())
	}
	tr.Event("sym", "probe", F("paths", 4))
	innerDur := inner.End()
	if innerDur < 0 {
		t.Fatalf("inner duration %v", innerDur)
	}
	outerDur := outer.End()
	if tr.Depth() != 0 {
		t.Fatalf("depth after ends = %d, want 0", tr.Depth())
	}

	// The span tree holds exactly the two spans, each with the duration
	// its End returned, and the outer one contains the inner.
	recs := tr.Spans()
	if len(recs) != 2 || recs[0].Name != "outer" || recs[1].Name != "inner" {
		t.Fatalf("span tree = %+v, want [outer inner]", recs)
	}
	if recs[0].Dur != outerDur || recs[1].Dur != innerDur {
		t.Fatalf("recorded durations (%v, %v), End returned (%v, %v)",
			recs[0].Dur, recs[1].Dur, outerDur, innerDur)
	}
	if outerDur < innerDur {
		t.Fatalf("outer (%v) should contain inner (%v)", outerDur, innerDur)
	}
	out := buf.String()
	// The event inside two open spans is indented two levels, and is
	// rendered exactly once.
	if !strings.Contains(out, "    sym: probe paths=4") {
		t.Fatalf("missing indented event line in:\n%s", out)
	}
	if n := strings.Count(out, "sym: probe"); n != 1 {
		t.Fatalf("event rendered %d times, want 1:\n%s", n, out)
	}
}

func TestTracerIterationLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Iteration(IterationRecord{Iter: 3, Paths: 40, MergedTo: 9, MaxDiff: 1e-5})
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("iteration rendered %d lines, want 1: %q", got, buf.String())
	}
	if !strings.Contains(buf.String(), "iter  3: paths=40 merged=9") {
		t.Fatalf("bad iteration line: %q", buf.String())
	}
	// An iteration is a text line only: it adds nothing to the span tree.
	if got := len(tr.Spans()); got != 0 {
		t.Fatalf("iteration recorded %d spans, want 0", got)
	}
}

// The registry must stay consistent when many goroutines write while others
// snapshot (exercised under -race in CI).
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterView("view", func() map[string]float64 { return map[string]float64{"k": 7} })
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("ops").Inc()
				reg.Gauge("last").Set(float64(i))
				reg.Histogram("lat").Observe(float64(i%10) * 1e-4)
				if i%100 == 0 {
					reg.SetAll("bulk", map[string]float64{"x": float64(i)})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				reg.Snapshot()
				reg.WritePrometheus(io.Discard)
			}
		}
	}()
	wg.Wait()
	close(done)

	snap := reg.Snapshot()
	if snap["ops"] != workers*perWorker {
		t.Fatalf("ops = %v, want %d", snap["ops"], workers*perWorker)
	}
	if snap["lat.count"] != workers*perWorker {
		t.Fatalf("lat.count = %v", snap["lat.count"])
	}
	if snap["view.k"] != 7 {
		t.Fatalf("view.k = %v", snap["view.k"])
	}
	if _, ok := snap["bulk.x"]; !ok {
		t.Fatal("bulk gauge missing")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(0.001) // lands in the 1ms bucket
	}
	h.Observe(50) // one outlier
	count, sum, p50, p99 := h.Summary()
	if count != 101 {
		t.Fatalf("count = %d", count)
	}
	if math.Abs(sum-(0.1+50)) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
	if p50 != 0.001 {
		t.Fatalf("p50 = %v, want 0.001", p50)
	}
	if p99 != 0.001 && p99 != 50 {
		t.Fatalf("p99 = %v", p99)
	}
}

// goldenReport is a fixed report exercising every schema field; the golden
// file locks the v5 JSON shape (key names, nesting, clamping, the job
// metadata block with trace_id, the target field, the ifc leak summary,
// the hot-block table).
func goldenReport() *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Kind:          "profile",
		Program:       "counter",
		Target:        "idealized",
		Options:       map[string]any{"max_iters": 8, "seed": 1},
		Job: &JobMeta{
			ID:          "9c2f4e8a1b3d5c7e9c2f4e8a1b3d5c7e9c2f4e8a1b3d5c7e9c2f4e8a1b3d5c7e",
			TraceID:     "9c2f4e8a1b3d5c7e",
			Kind:        "profile",
			Priority:    2,
			SubmittedAt: "2026-01-02T03:04:05.000000006Z",
			StartedAt:   "2026-01-02T03:04:05.250000006Z",
			FinishedAt:  "2026-01-02T03:04:06.500000006Z",
			WaitSec:     0.25,
		},
		WallSec: 1.25,
		Stages:  map[string]float64{"sym": 0.75, "merge": 0.25, "sample": 0.2},
		Iterations: []IterationRecord{
			{Iter: 0, Paths: 12, MergedTo: 4, Forks: 11, Constraints: 30,
				MaxDiff: 0.5, MCQueries: 12, MCHitRate: 0.25, SymSec: 0.4,
				UpdateSec: 0.05, MergeSec: 0.1},
			{Iter: 1, Paths: 20, MergedTo: 5, Forks: 19, Constraints: 44,
				MaxDiff: 5e-5, Stable: 1, MCQueries: 30, MCHitRate: 0.6,
				SymSec: 0.35, UpdateSec: 0.04, MergeSec: 0.15},
		},
		Converged: true,
		Coverage:  1,
		Nodes: []NodeReport{
			{Rank: 1, ID: 3, Label: "tcp_sample", P: 0, Log10P: math.Inf(-1), Source: "telescope"},
			{Rank: 2, ID: 1, Label: "tcp", P: 0.00390625, Log10P: -2.408239965311849, Source: "symbex"},
		},
		IFC: &IFCSummary{
			Secrets: []string{"register:tcp_cnt"},
			Sinks:   []string{"action:mirror"},
			Leaks: []LeakReport{
				{Source: "register:tcp_cnt", Sink: "action:mirror", Node: 3,
					Block: "tcp_sample", Flow: "implicit",
					Witness: "tcp(#1) -> tcp_sample(#3)",
					P:       0.00390625, Log10P: -2.408239965311849, Weighted: true},
				{Source: "register:tcp_cnt", Sink: "action:mirror", Node: 5,
					Block: "udp_sample", Flow: "implicit",
					Witness: "udp(#4) -> udp_sample(#5)",
					P:       0, Log10P: math.Inf(-1), Weighted: true},
			},
			MaxP:      0.00390625,
			MaxLog10P: -2.408239965311849,
		},
		HotBlocks: []HotBlockReport{
			{Rank: 1, ID: 1, Label: "tcp", Visits: 40, Forks: 19, SolverSec: 0.125},
			{Rank: 2, ID: 3, Label: "tcp_sample", Visits: 12, Forks: 0, SolverSec: 0.004},
		},
		Metrics: map[string]float64{"core.iterations": 2, "sym.forks": 30},
	}
}

func TestReportGolden(t *testing.T) {
	data, err := json.MarshalIndent(goldenReport(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	golden := filepath.Join("testdata", "report_v5.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("report JSON drifted from %s (run with UPDATE_GOLDEN=1 after intentional schema changes, and bump SchemaVersion)\ngot:\n%s", golden, data)
	}
	// The golden bytes must round-trip: -Inf clamps to the sentinel, the
	// rest survives exactly.
	var back Report
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion || back.Kind != "profile" {
		t.Fatalf("round-trip header: %+v", back)
	}
	if back.Nodes[0].Log10P != minLog10 {
		t.Fatalf("-Inf should clamp to %g, got %g", minLog10, back.Nodes[0].Log10P)
	}
	if len(back.Iterations) != 2 || back.Iterations[1].Stable != 1 {
		t.Fatalf("iterations round-trip: %+v", back.Iterations)
	}
	if back.Job == nil || back.Job.ID != goldenReport().Job.ID || back.Job.WaitSec != 0.25 {
		t.Fatalf("job metadata round-trip: %+v", back.Job)
	}
	if back.IFC == nil || len(back.IFC.Leaks) != 2 || back.IFC.Leaks[0].Flow != "implicit" {
		t.Fatalf("ifc summary round-trip: %+v", back.IFC)
	}
	if back.IFC.Leaks[1].Log10P != minLog10 {
		t.Fatalf("leak -Inf should clamp to %g, got %g", minLog10, back.IFC.Leaks[1].Log10P)
	}
	if back.Job.TraceID != "9c2f4e8a1b3d5c7e" {
		t.Fatalf("trace_id round-trip: %+v", back.Job)
	}
	if len(back.HotBlocks) != 2 || back.HotBlocks[0].Label != "tcp" || back.HotBlocks[0].Visits != 40 {
		t.Fatalf("hot_blocks round-trip: %+v", back.HotBlocks)
	}
	// Offline reports must omit the job block entirely, and policy-free
	// programs the ifc block.
	plain := goldenReport()
	plain.Job = nil
	plain.IFC = nil
	plain.HotBlocks = nil
	data, err = json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"job"`)) {
		t.Fatalf("nil Job must not serialize: %s", data)
	}
	if bytes.Contains(data, []byte(`"ifc"`)) {
		t.Fatalf("nil IFC must not serialize: %s", data)
	}
	if bytes.Contains(data, []byte(`"hot_blocks"`)) {
		t.Fatalf("empty HotBlocks must not serialize: %s", data)
	}
}

func TestWriteJSONAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteJSONAtomic(path, goldenReport()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("unparsable report: %v", err)
	}
	// No temp files may linger after a successful write.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("leftover temp files: %v", entries)
	}
	// Overwrite must also succeed (rename over existing).
	if err := WriteJSONAtomic(path, goldenReport()); err != nil {
		t.Fatal(err)
	}
}

func TestReportSummary(t *testing.T) {
	s := goldenReport().Summary()
	for _, want := range []string{"counter", "wall 1.250s", "stage", "sym", "(sum)", "core.iterations"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	got := Table([]string{"a", "long"}, [][]string{{"xxxx", "1"}})
	want := "a     long\n----  ----\nxxxx  1   \n"
	if got != want {
		t.Fatalf("table = %q, want %q", got, want)
	}
}
