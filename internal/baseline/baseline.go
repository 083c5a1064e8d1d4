// Package baseline implements the three comparison systems of the paper's
// evaluation:
//
//   - Exhaustive ("KLEE"): general-purpose symbolic execution with no
//     greybox analysis, no state merging, and no telescoping. Approximate
//     data structures are materialized as symbolic arrays, so cost grows
//     with structure size and the search times out on deep or large state
//     (Figures 6a–6f).
//
//   - Ex: exhaustive search *with* greybox analysis — the accuracy ground
//     truth used in §5.2 (it still enumerates, so it only completes on
//     shrunk program versions).
//
//   - PS: path sampling with informed concrete packets — Figure 8's
//     sampling baseline, whose resolution is bounded by 1/samples.
package baseline

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dut"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/prob"
	"repro/internal/sym"

	"math/rand"
)

// Result summarizes a baseline run.
type Result struct {
	Paths    int
	TimedOut bool
	Duration time.Duration
	Coverage float64 // fraction of CFG nodes reached
	Stats    sym.Stats
}

// Exhaustive runs the KLEE-like baseline for `packets` symbolic packets
// under a wall-clock budget. It reports a timeout exactly as the paper
// reports KLEE timeouts.
func Exhaustive(prog *ir.Program, packets int, budget time.Duration, maxPaths int) Result {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	e := sym.NewEngine(prog, sym.Options{
		Greybox:  false,
		Merge:    false,
		MaxPaths: maxPaths,
		Ctx:      ctx,
	})
	paths := e.Initial()
	var err error
	reached := map[int]bool{}
	for i := 0; i < packets; i++ {
		paths, err = e.Step(paths, i)
		if err != nil {
			return Result{TimedOut: true, Duration: time.Since(start), Stats: e.Stats,
				Coverage: float64(len(reached)) / float64(max(1, len(prog.Nodes())))}
		}
		for _, p := range paths {
			for _, id := range p.VisitedNodes() {
				reached[id] = true
			}
		}
	}
	return Result{
		Paths:    len(paths),
		Duration: time.Since(start),
		Coverage: float64(len(reached)) / float64(max(1, len(prog.Nodes()))),
		Stats:    e.Stats,
	}
}

// ExProfile is the `ex` baseline: exhaustive enumeration (no merging, no
// telescoping) with greybox stores, model-counting every final path. It is
// the accuracy ground truth for small/shrunk programs.
func ExProfile(prog *ir.Program, oracle dist.Oracle, packets int, budget time.Duration) (map[int]prob.P, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	e := sym.NewEngine(prog, sym.Options{
		Greybox:  true,
		Merge:    false,
		MaxPaths: 1 << 22,
		Ctx:      ctx,
	})
	counter := mc.NewCounter(e.Space, oracle)
	paths := e.Initial()
	var err error
	for i := 0; i < packets; i++ {
		paths, err = e.Step(paths, i)
		if err != nil {
			return nil, false
		}
	}
	// The final model-counting pass reuses the engine's worker pool, bounded
	// by the same wall-clock budget the exploration ran under (enumerated
	// path sets dwarf the frontier, so this is where ex actually times out).
	probs, perr := sym.NodeProbsPool(ctx, paths, counter, len(prog.Nodes()), e.Pool())
	if perr != nil {
		return nil, false
	}
	out := make(map[int]prob.P, len(probs))
	for id, p := range probs {
		out[id] = p
	}
	return out, true
}

// SamplePoint is one measurement of the ps baseline: after Samples packets,
// the estimate for each node and the resolution floor 1/Samples.
type SamplePoint struct {
	Samples     int
	Elapsed     time.Duration
	Granularity float64
	Estimates   map[int]float64
}

// PathSample runs the ps baseline: concrete informed sampling with
// measurements at exponentially spaced sample counts, until the budget or
// maxSamples is exhausted. The confidence level is fixed at 99% as in the
// paper; the reported granularity is the finest probability the sample size
// can resolve.
func PathSample(prog *ir.Program, oracle dist.Oracle, seed int64, maxSamples int, budget time.Duration) []SamplePoint {
	if oracle == nil {
		oracle = &dist.UniformOracle{}
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	gen := core.NewPacketSampler(prog, oracle, rng)
	sw := dut.New(prog, dut.Config{})
	visit := map[int]bool{}
	sw.VisitHook = func(id int) { visit[id] = true }

	counts := map[int]int{}
	var points []SamplePoint
	next := 100
	n := 0
	for n < maxSamples && time.Since(start) < budget {
		pkt := gen.Next()
		for k := range visit {
			delete(visit, k)
		}
		sw.Process(&pkt)
		for id := range visit {
			counts[id]++
		}
		n++
		if n == next {
			points = append(points, snapshot(n, time.Since(start), counts))
			next *= 4
		}
	}
	if len(points) == 0 || points[len(points)-1].Samples != n {
		points = append(points, snapshot(n, time.Since(start), counts))
	}
	return points
}

func snapshot(n int, elapsed time.Duration, counts map[int]int) SamplePoint {
	est := make(map[int]float64, len(counts))
	for id, c := range counts {
		est[id] = float64(c) / float64(n)
	}
	return SamplePoint{
		Samples:     n,
		Elapsed:     elapsed,
		Granularity: 1 / float64(n),
		Estimates:   est,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
