package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/obs"
)

func TestProbProfContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prof, err := ProbProf(counterProg(t, 8), nil, Options{Seed: 1, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if prof != nil {
		t.Fatal("canceled run should not return a profile")
	}
}

func TestProbProfContextDeadline(t *testing.T) {
	// A parent deadline far shorter than Timeout or the sampling phase must
	// abort the whole run promptly — this is the overshoot the plain
	// Timeout option could not prevent on path-explosion iterations.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ProbProf(counterProg(t, 64), nil, Options{
		Seed: 1, Context: ctx,
		MaxIters: 50, Timeout: 30 * time.Second, SampleBudget: 5_000_000,
		DisableTelescope: true, // force a long symbolic+sampling run
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("run overshot the 50ms parent deadline by %v", elapsed)
	}
}

func TestProbProfTimeoutStillSamples(t *testing.T) {
	// Timeout (the convenience wrapper) only ends the symbolic phase: the
	// sampling fallback still runs and the call succeeds.
	prof, err := ProbProf(counterProg(t, 40), nil, Options{
		Seed: 1, MaxIters: 50, Timeout: 50 * time.Millisecond,
		DisableTelescope: true, SampleBudget: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Stats.SampledNodes == 0 {
		t.Fatalf("expected sampling fallback after timeout: %+v", prof.Stats)
	}
}

func TestProbProfTraceAndReport(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	reg := obs.NewRegistry()
	opt := Options{Seed: 1, DisableSampling: true, Tracer: tr, Registry: reg}
	prof, err := ProbProf(counterProg(t, 8), nil, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Per-iteration records are always collected, and the tracer renders
	// exactly one "iter N:" line per record, in order.
	if len(prof.Stats.Iters) == 0 || len(prof.Stats.Iters) != prof.Stats.Iterations {
		t.Fatalf("iteration records = %d, iterations = %d",
			len(prof.Stats.Iters), prof.Stats.Iterations)
	}
	out := buf.String()
	lines := iterLine.FindAllStringSubmatch(out, -1)
	if len(lines) != len(prof.Stats.Iters) {
		t.Fatalf("tracer rendered %d iteration lines, stats hold %d records:\n%s",
			len(lines), len(prof.Stats.Iters), out)
	}
	for i, m := range lines {
		if n, _ := strconv.Atoi(m[1]); n != prof.Stats.Iters[i].Iter {
			t.Fatalf("iteration line %d is iter %s, record says %d", i, m[1], prof.Stats.Iters[i].Iter)
		}
	}
	for _, want := range []string{"probprof start", "iter  0:", "probprof done"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}

	// The registry ends up holding the flattened run metrics plus the
	// solver's process-wide counters via the registered view.
	snap := reg.Snapshot()
	for _, key := range []string{"core.iterations", "sym.forks", "mc.queries", "solver.builds"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("registry snapshot missing %q (have %d keys)", key, len(snap))
		}
	}
	if snap["core.iterations"] != float64(prof.Stats.Iterations) {
		t.Fatalf("core.iterations = %v, want %d", snap["core.iterations"], prof.Stats.Iterations)
	}

	// Report: schema-valid, stages accounted against wall time.
	rep := NewReport(prof, opt)
	if rep.SchemaVersion != obs.SchemaVersion || rep.Kind != "profile" {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Program != "counter" || len(rep.Nodes) != len(prof.Nodes) {
		t.Fatalf("report body: %+v", rep)
	}
	if rep.Nodes[0].Rank != 1 {
		t.Fatal("nodes must carry 1-based ranks")
	}
	sum := 0.0
	for _, s := range rep.Stages {
		if s < 0 {
			t.Fatalf("negative stage time: %v", rep.Stages)
		}
		sum += s
	}
	if sum > rep.WallSec*1.05 {
		t.Fatalf("stage sum %.4fs exceeds wall %.4fs", sum, rep.WallSec)
	}
	if rep.WallSec > 0.01 && sum < rep.WallSec*0.5 {
		t.Fatalf("stages only account for %.4fs of %.4fs wall", sum, rep.WallSec)
	}
	if rep.Options["max_iters"] != 12 { // defaulted value is recorded
		t.Fatalf("options not defaulted in report: %v", rep.Options["max_iters"])
	}
	if _, ok := rep.Metrics["solver.builds"]; !ok {
		t.Fatal("report metrics missing solver view")
	}
}

// iterLine matches one rendered "iter N:" trace line.
var iterLine = regexp.MustCompile(`\] iter +(\d+): `)

// Each stage the profiler wraps in a span is timed by that span alone: the
// Stats time is exactly the span's recorded duration, not a second clock
// read around the same call.
func TestStageTimesAreSpanDurations(t *testing.T) {
	tr := obs.NewTracer(nil)
	// MaxIters 1 cannot converge, so the sampling stage runs too.
	prof, err := ProbProf(counterProg(t, 8), nil, Options{
		Seed: 1, MaxIters: 1, SampleBudget: 2000, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string][]time.Duration{}
	for _, r := range tr.Spans() {
		spans[r.Name] = append(spans[r.Name], r.Dur)
	}
	for _, c := range []struct {
		name string
		got  time.Duration
	}{
		{"analysis", prof.Stats.AnalysisTime},
		{"telescope", prof.Stats.TelescopeTime},
		{"sample", prof.Stats.SampleTime},
	} {
		durs := spans[c.name]
		if len(durs) != 1 {
			t.Fatalf("%d %q spans, want 1", len(durs), c.name)
		}
		if c.got != durs[0] {
			t.Errorf("Stats %s time = %v, span recorded %v", c.name, c.got, durs[0])
		}
	}
}

func TestStatsMetricsStageKeys(t *testing.T) {
	s := &Stats{SymTime: time.Second, SampleTime: 2 * time.Second}
	m := s.Metrics()
	if m["core.stage.sym_sec"] != 1 || m["core.stage.sample_sec"] != 2 {
		t.Fatalf("stage metrics: %v", m)
	}
	if len(s.Stages()) != 7 {
		t.Fatalf("expected 7 stages, got %v", s.Stages())
	}
}

// PacketSampler.Next must conform to a skewed oracle: empirical per-piece
// frequencies match dist.MassIn and the retransmission knob matches the
// pair-equality probability.
func TestPacketSamplerDistributionConformance(t *testing.T) {
	pieces := []dist.Piece{
		{Lo: 0, Hi: 5, Mass: 0.15},
		{Lo: 6, Hi: 6, Mass: 0.6},
		{Lo: 7, Hi: 255, Mass: 0.25},
	}
	d := dist.MustFromPieces(pieces)
	oracle := dist.NewProfile().SetField("proto", d).SetPairEq("seq", 0.1)
	prog := counterProg(t, 4)
	s := NewPacketSampler(prog, oracle, rand.New(rand.NewSource(7)))

	const n = 40000
	counts := make([]int, len(pieces))
	retrans := 0
	var prevSeq uint32
	for i := 0; i < n; i++ {
		p := s.Next()
		v, ok := p.Field("proto")
		if !ok {
			t.Fatal("packet missing proto")
		}
		for j, pc := range pieces {
			if v >= pc.Lo && v <= pc.Hi {
				counts[j]++
			}
		}
		if i > 0 && p.Seq == prevSeq {
			retrans++
		}
		prevSeq = p.Seq
	}
	for j, pc := range pieces {
		want := d.MassIn(pc.Lo, pc.Hi)
		got := float64(counts[j]) / n
		// 5 sigma on a binomial proportion.
		tol := 5 * math.Sqrt(want*(1-want)/n)
		if math.Abs(got-want) > tol {
			t.Fatalf("piece [%d,%d]: freq %.4f, want %.4f ± %.4f",
				pc.Lo, pc.Hi, got, want, tol)
		}
	}
	// Retransmissions replay the previous packet with P = pairEq; natural
	// seq collisions add a negligible epsilon on a 32-bit field.
	if got := float64(retrans) / n; math.Abs(got-0.1) > 0.01 {
		t.Fatalf("retrans rate %.4f, want ≈ 0.10", got)
	}
	// Unknown fields fall back to uniform: check the sampler still sets them.
	var p = s.Next()
	if _, ok := p.Field("sport"); !ok && hasField(prog, "sport") {
		t.Fatal("uniform-fallback field missing")
	}
}

func hasField(p *ir.Program, name string) bool {
	for _, f := range p.Fields {
		if f.Name == name {
			return true
		}
	}
	return false
}

func TestSamplePathsEarlyCancelNormalizes(t *testing.T) {
	// Cancel partway through sampling: estimates must be normalized by the
	// packets actually drawn, so probabilities stay calibrated (a near-sure
	// block still reads ≈ its true rate, not deflated by the unused budget).
	prog := counterProg(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	est := samplePaths(ctx, prog, &dist.UniformOracle{}, Options{
		Seed: 1, SampleBudget: 200_000_000, // would take minutes uncancelled
	}.withDefaults(), nil, nil)
	if len(est) == 0 {
		t.Skip("sampling finished zero batches before the deadline")
	}
	// proto==TCP branch ~1/256, so the "udp" side is hit almost always.
	max := 0.0
	for _, v := range est {
		if v > max {
			max = v
		}
	}
	if max < 0.5 {
		t.Fatalf("estimates deflated after early cancel: max = %v", max)
	}
}

// The observability layer must be invisible when disabled: same estimates,
// and the benchmark pair below quantifies the overhead (<2% acceptance).
func TestProbProfObsOffUnchanged(t *testing.T) {
	prog := counterProg(t, 8)
	plain, err := ProbProf(prog, nil, Options{Seed: 1, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := ProbProf(prog, nil, Options{
		Seed: 1, DisableSampling: true,
		Tracer: obs.NewTracer(nil), Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := plain.Ranking(), traced.Ranking()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("tracing changed the profile")
		}
	}
}

func BenchmarkProbProfObsOff(b *testing.B) {
	prog := counterProg(b, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ProbProf(prog, nil, Options{Seed: 1, DisableSampling: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbProfObsOn(b *testing.B) {
	prog := counterProg(b, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := ProbProf(prog, nil, Options{
			Seed: 1, DisableSampling: true,
			Tracer: obs.NewTracer(nil), Registry: obs.NewRegistry(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
