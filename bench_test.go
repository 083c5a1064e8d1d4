// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment), plus the ablation and microbenchmarks
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// These measure regeneration cost at eval.Quick() scale; the rendered
// tables themselves come from `go run ./cmd/p4wnbench`.
package p4wn_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dut"
	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/target"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// ---- Table 1 and Figures 6-13: one bench per experiment ----

func BenchmarkTable1(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6a(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure6a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6b(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure6b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6c(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure6c(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6d(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure6d(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6e(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure6e(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6f(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure6f(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure12(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure13(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccuracyVsExhaustive(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AccuracyVsExhaustive(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOffloadCaseStudy(b *testing.B) {
	cfg := eval.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := eval.OffloadCaseStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md) ----

// State merging on/off: merging keeps the stateful search polynomial.
func BenchmarkAblationMergingOn(b *testing.B)  { benchMerging(b, true) }
func BenchmarkAblationMergingOff(b *testing.B) { benchMerging(b, false) }

func benchMerging(b *testing.B, merge bool) {
	for i := 0; i < b.N; i++ {
		prog := programs.Counter(16)
		e := sym.NewEngine(prog, sym.Options{Greybox: true, Merge: merge, MaxPaths: 1 << 18})
		counter := mc.NewCounter(e.Space, nil)
		paths := e.Initial()
		var err error
		for k := 0; k < 12; k++ {
			paths, err = e.Step(paths, k)
			if err != nil {
				b.Fatal(err)
			}
			if merge {
				paths = sym.Merge(paths, counter)
			}
		}
	}
}

// Telescoping on/off on Blink: its retransmission tracking carries
// cross-packet symbolic state that cannot be merged away, so without
// telescoping the main loop cannot reach the depth-33 reroute block at any
// affordable budget — the Off profile lacks the estimate entirely, while
// the On arm gets it from a 4-packet probe. The comparison is therefore
// about what the time buys, not raw speed.
func BenchmarkAblationTelescopeOn(b *testing.B)  { benchTelescope(b, false) }
func BenchmarkAblationTelescopeOff(b *testing.B) { benchTelescope(b, true) }

func benchTelescope(b *testing.B, disable bool) {
	for i := 0; i < b.N; i++ {
		opt := core.Options{
			Seed: 1, MaxIters: 12, DisableTelescope: disable, DisableSampling: true,
			Timeout: 2 * time.Second,
		}
		prof, err := core.ProbProf(programs.Blink(), nil, opt)
		if err != nil {
			b.Fatal(err)
		}
		rr, _ := prof.ByLabel("reroute")
		if disable && !rr.P.IsZero() {
			b.Fatal("reroute estimated without telescoping?")
		}
		if !disable && rr.P.IsZero() {
			b.Fatal("telescoping should estimate reroute")
		}
	}
}

// Greybox vs symbolic-array handling of a fixed-size hash table.
func BenchmarkAblationGreyboxOn(b *testing.B)  { benchGreybox(b, true) }
func BenchmarkAblationGreyboxOff(b *testing.B) { benchGreybox(b, false) }

func benchGreybox(b *testing.B, grey bool) {
	for i := 0; i < b.N; i++ {
		prog := programs.HTable(512, 8)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		e := sym.NewEngine(prog, sym.Options{Greybox: grey, MaxPaths: 1 << 16, Ctx: ctx})
		paths := e.Initial()
		var err error
		for k := 0; k < 4 && err == nil; k++ {
			paths, err = e.Step(paths, k)
		}
		cancel()
		_ = paths
	}
}

// Exact vs Monte-Carlo model counting on a pair constraint.
func BenchmarkAblationCounterExact(b *testing.B) { benchCounter(b, false) }
func BenchmarkAblationCounterMC(b *testing.B)    { benchCounter(b, true) }

func benchCounter(b *testing.B, forceMC bool) {
	space := solver.NewSpace(ir.StdFields)
	cs := []solver.Constraint{
		solver.NewCmp(ir.CmpLt,
			solver.VarExpr(solver.Var{Pkt: 0, Field: "src_port"}),
			solver.VarExpr(solver.Var{Pkt: 0, Field: "dst_port"})),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mc.NewCounter(space, nil)
		c.ForceMC = forceMC
		c.MCSamples = 5000
		c.Seed = int64(i)
		_ = c.ProbOf(cs)
	}
}

// Query cache on/off in the trace oracle.
func BenchmarkAblationQueryCacheOn(b *testing.B)  { benchQueryCache(b, true) }
func BenchmarkAblationQueryCacheOff(b *testing.B) { benchQueryCache(b, false) }

func benchQueryCache(b *testing.B, cached bool) {
	tr := trace.Generate(trace.GenOptions{Seed: 1, Packets: 20000})
	q := trace.NewQueryProcessor(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cached {
			q.FieldDist("proto")
		} else {
			q.FieldDistNoCache("proto")
		}
	}
}

// ---- Microbenchmarks of the substrates ----

func BenchmarkSolverSolve(b *testing.B) {
	space := solver.NewSpace(ir.StdFields)
	cs := []solver.Constraint{
		solver.NewCmp(ir.CmpEq,
			solver.VarExpr(solver.Var{Pkt: 0, Field: "seq"}),
			solver.VarExpr(solver.Var{Pkt: 1, Field: "seq"})),
		solver.NewCmp(ir.CmpGe,
			solver.VarExpr(solver.Var{Pkt: 0, Field: "src_port"}),
			solver.ConstExpr(1024)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := solver.Solve(cs, space, solver.SolveOptions{Seed: int64(i)}); !ok {
			b.Fatal("unsat")
		}
	}
}

func BenchmarkModelCount(b *testing.B) {
	space := solver.NewSpace(ir.StdFields)
	c := mc.NewCounter(space, nil)
	c.DisableCache = true
	cs := []solver.Constraint{
		solver.NewCmp(ir.CmpLe,
			solver.VarExpr(solver.Var{Pkt: 0, Field: "src_port"}),
			solver.ConstExpr(80)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ProbOf(cs)
	}
}

func BenchmarkDUTProcess(b *testing.B) {
	prog := programs.Blink()
	tr := trace.Generate(trace.GenOptions{Seed: 1, Packets: 1024})
	for _, model := range target.All() {
		b.Run(model.Name, func(b *testing.B) {
			sw := dut.New(prog, dut.Config{Target: model})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Process(&tr.Packets[i%tr.Len()])
			}
		})
	}
}

func BenchmarkSymStepBlink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sym.NewEngine(programs.Blink(), sym.Options{Greybox: true, Merge: true, MaxPaths: 1 << 16})
		counter := mc.NewCounter(e.Space, nil)
		paths := e.Initial()
		var err error
		for k := 0; k < 3; k++ {
			paths, err = e.Step(paths, k)
			if err != nil {
				b.Fatal(err)
			}
			paths = sym.Merge(paths, counter)
		}
	}
}

func BenchmarkTestgenCounter(b *testing.B) {
	prog := programs.Counter(32)
	target := prog.NodeByLabel("tcp_sample").ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := testgen.Generate(prog, target, testgen.Options{Seed: int64(i)})
		if err != nil || !adv.Validated {
			b.Fatal("generation failed")
		}
	}
}

func BenchmarkPathSampling(b *testing.B) {
	prog := programs.Counter(8)
	for i := 0; i < b.N; i++ {
		baseline.PathSample(prog, &dist.UniformOracle{}, int64(i), 5000, time.Second)
	}
}

func BenchmarkTraceGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace.Generate(trace.GenOptions{Seed: int64(i), Packets: 10000})
	}
}

func BenchmarkOracleQueries(b *testing.B) {
	q := trace.NewQueryProcessor(trace.Generate(trace.GenOptions{Seed: 1, Packets: 20000}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PairEqualProb("seq")
		q.FieldDist("proto")
	}
}
