// Package core implements P4wn's probabilistic profiler — the ProbProf
// algorithm of paper Figure 3. It drives the symbolic engine over a growing
// sequence of symbolic packets, computes per-code-block probabilities via
// model counting (optionally weighted by a traffic oracle), telescopes
// counter-guarded "deep" code blocks, and falls back to informed concrete
// sampling for whatever has not converged when the symbolic budget runs out.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/dist"
	"repro/internal/greybox"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/target"
)

// solverMetricsView and greyboxMetricsView adapt the process-wide solver
// and greybox counters to the obs registry's view type.
var (
	solverMetricsView  = obs.ViewFunc(solver.MetricsView)
	greyboxMetricsView = obs.ViewFunc(greybox.MetricsView)
)

// Options tunes ProbProf. Zero values select the documented defaults.
type Options struct {
	// Alpha is the confidence level for convergence (default 0.99): it
	// maps to the number of consecutive stable rounds required.
	Alpha float64
	// Epsilon is the convergence error bound on per-block probabilities
	// (default 1e-4).
	Epsilon float64
	// Gamma is the telescoping probe length in packets (default 4).
	Gamma int
	// Delta is the sampling-phase growth factor (default 4; reserved).
	Delta int
	// MaxIters bounds the main loop's symbolic sequence length (default 12).
	MaxIters int
	// Timeout bounds the main symbolic loop before the sampling phase
	// takes over (default 10s).
	Timeout time.Duration
	// SampleBudget is the number of concrete packets drawn in the
	// sampling phase (default 50000).
	SampleBudget int
	// MaxPaths bounds live symbolic paths (default 200000).
	MaxPaths int

	// Telescope enables deep-block telescoping (default on; DisableTelescope
	// flips it for the ablation).
	DisableTelescope bool
	// DisableMerge turns off state merging (ablation).
	DisableMerge bool
	// DisableSampling turns off the concrete sampling fallback.
	DisableSampling bool
	// DisablePrune turns off static dead-branch pruning (repo-over-paper
	// extension; the paper's pipeline symbolically explores every syntactic
	// branch). With pruning on, blocks the analysis package proves
	// unreachable are reported as probability-0 without spending solver
	// time, and the engine discards paths before forking into them.
	DisablePrune bool

	// Locality overrides greybox key locality.
	Locality float64
	// Target names the device model to profile against (see
	// internal/target): "idealized" (the default), "tofino", or "ebpf".
	// The model parameterizes the symbolic engine, telescoping, and the
	// concrete sampling switch alike, so one profile describes one device.
	Target string
	// Seed drives sampling and Monte-Carlo determinism.
	Seed int64
	// Workers is the degree of parallelism for the profiler's hot loops:
	// frontier stepping, per-path model-counting queries, telescoping, and
	// the sampling fallback all share one worker pool. <= 0 (the default)
	// selects runtime.GOMAXPROCS. Results are bit-identical for every
	// worker count.
	Workers int

	// Context cancels the whole run (symbolic loop, telescoping, and the
	// sampling fallback); it is checked at engine fork points and inside
	// every per-path stage, so even a path-explosion iteration stops
	// promptly. Timeout remains the convenience wrapper bounding only the
	// symbolic phase before sampling takes over. Nil means no external
	// cancellation.
	Context context.Context
	// Tracer receives stage spans, telescope decisions and one text line
	// per iteration. Nil (the default) records nothing and allocates
	// nothing per event.
	Tracer *obs.Tracer
	// Registry, when non-nil, is updated once per iteration (and at the
	// end of the run) with the core/sym/mc metric views plus the
	// process-wide solver counters, for the -metrics-addr endpoint.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.99
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-4
	}
	if o.Gamma == 0 {
		o.Gamma = 4
	}
	if o.Delta == 0 {
		o.Delta = 4
	}
	if o.MaxIters == 0 {
		o.MaxIters = 12
	}
	if o.Timeout == 0 {
		o.Timeout = 10 * time.Second
	}
	if o.SampleBudget == 0 {
		o.SampleBudget = 50000
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = 200000
	}
	if o.Target == "" {
		o.Target = target.Idealized.Name
	}
	return o
}

// stableRounds maps the confidence level to the number of consecutive
// ε-stable rounds required before the profile is declared converged.
func (o Options) stableRounds() int {
	switch {
	case o.Alpha >= 0.999:
		return 4
	case o.Alpha >= 0.99:
		return 3
	default:
		return 2
	}
}

// Source tags how a node's probability estimate was obtained.
type Source int

const (
	// SrcSymbex: converged symbolic estimate (model counted).
	SrcSymbex Source = iota
	// SrcTelescope: telescoped deep-block estimate.
	SrcTelescope
	// SrcSampled: concrete-sampling estimate.
	SrcSampled
	// SrcUnreached: never observed; probability is zero.
	SrcUnreached
	// SrcPruned: statically proven dead by the analysis package;
	// probability is exactly zero and no exploration was spent on it.
	SrcPruned
)

func (s Source) String() string {
	switch s {
	case SrcSymbex:
		return "symbex"
	case SrcTelescope:
		return "telescope"
	case SrcSampled:
		return "sampled"
	case SrcPruned:
		return "pruned"
	}
	return "unreached"
}

// NodeProb is one profiled code block.
type NodeProb struct {
	ID     int
	Label  string
	P      prob.P
	Source Source
}

// Stats instruments a profiling run.
type Stats struct {
	Duration       time.Duration
	AnalysisTime   time.Duration // static dead-block pre-analysis
	TelescopeTime  time.Duration // telescoping probe + generalization
	UpdateProbTime time.Duration
	SymTime        time.Duration
	MergeTime      time.Duration
	SampleTime     time.Duration
	FinalizeTime   time.Duration // distguard generalization + profile assembly
	Iterations     int           // completed iterations: always len(Iters)
	Paths          int
	TelescopedNode int
	SampledNodes   int
	PrunedNodes    int // blocks reported probability-0 by static analysis
	Counter        mc.Stats
	Engine         sym.Stats
	OracleQueries  int
	// Pool is the shared worker pool's snapshot (workers, batches, tasks,
	// per-worker utilization); Cache is the memo cache's shard-level view
	// (shards, resident entries, lock contention). Both land in the run
	// report under "pool." / "mc.".
	Pool  map[string]float64
	Cache map[string]float64
	// Iters is the per-iteration convergence trajectory (always collected;
	// it is bounded by MaxIters and is what the run report serializes).
	Iters []obs.IterationRecord
	// Hot is the engine's per-block exploration cost table (visits, forks,
	// attributed solver time), the source of the report's hot_blocks section.
	Hot []sym.HotBlock
}

// Stages returns per-stage wall seconds under the report's stage names.
func (s *Stats) Stages() map[string]float64 {
	return map[string]float64{
		"analysis":   s.AnalysisTime.Seconds(),
		"telescope":  s.TelescopeTime.Seconds(),
		"sym":        s.SymTime.Seconds(),
		"updateprob": s.UpdateProbTime.Seconds(),
		"merge":      s.MergeTime.Seconds(),
		"sample":     s.SampleTime.Seconds(),
		"finalize":   s.FinalizeTime.Seconds(),
	}
}

// Metrics flattens the run's stats — including the nested engine and
// counter stats — into the fully-qualified registry/report namespace.
func (s *Stats) Metrics() map[string]float64 {
	m := map[string]float64{
		"core.duration_sec":     s.Duration.Seconds(),
		"core.iterations":       float64(s.Iterations),
		"core.paths":            float64(s.Paths),
		"core.telescoped_nodes": float64(s.TelescopedNode),
		"core.sampled_nodes":    float64(s.SampledNodes),
		"core.pruned_nodes":     float64(s.PrunedNodes),
		"core.oracle_queries":   float64(s.OracleQueries),
	}
	for k, v := range s.Stages() {
		m["core.stage."+k+"_sec"] = v
	}
	for k, v := range s.Engine.Metrics() {
		m["sym."+k] = v
	}
	for k, v := range s.Counter.Metrics() {
		m["mc."+k] = v
	}
	for k, v := range s.Pool {
		m["pool."+k] = v
	}
	for k, v := range s.Cache {
		m["mc."+k] = v
	}
	return m
}

// Profile is the probabilistic profile (N, µ̂) of a program: the per-packet
// steady-state probability that each CFG code block is exercised.
type Profile struct {
	Program   string
	Nodes     []NodeProb // ascending by probability (edge cases first)
	Converged bool
	Coverage  float64
	Stats     Stats
}

// ByID returns the node entry for a CFG node ID.
func (pf *Profile) ByID(id int) (NodeProb, bool) {
	for _, n := range pf.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return NodeProb{}, false
}

// ByLabel returns the first node entry with the given label.
func (pf *Profile) ByLabel(label string) (NodeProb, bool) {
	for _, n := range pf.Nodes {
		if n.Label == label {
			return n, true
		}
	}
	return NodeProb{}, false
}

// Ranking returns node IDs ordered by ascending probability.
func (pf *Profile) Ranking() []int {
	out := make([]int, len(pf.Nodes))
	for i, n := range pf.Nodes {
		out[i] = n.ID
	}
	return out
}

// ProbProf profiles a program against a traffic oracle (nil = uniform
// header space). This is the paper's main algorithm.
func ProbProf(progIn *ir.Program, oracle dist.Oracle, optIn Options) (*Profile, error) {
	opt := optIn.withDefaults()
	tgt, err := target.Lookup(opt.Target)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if oracle == nil {
		oracle = &dist.UniformOracle{}
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	tr := opt.Tracer
	reg := opt.Registry
	reg.RegisterView("solver", solverMetricsView)
	reg.RegisterView("greybox", greyboxMetricsView)

	// Root span of the run: every stage span and pool batch span below
	// parents into it through the context, so the exported trace renders the
	// whole lifecycle as one tree.
	ctx, rootSpan := tr.StartSpanCtx(ctx, "probprof")
	defer rootSpan.End()

	// One pool serves every parallel stage of the run (exploration, counting,
	// telescoping, sampling), so its utilization metrics describe the whole
	// profile rather than one phase.
	pool := par.New(opt.Workers, tr, "pool")
	reg.RegisterView("pool", obs.ViewFunc(pool.Metrics))

	numNodes := len(progIn.Nodes())
	tr.Event("core", "probprof start", obs.F("nodes", float64(numNodes)),
		obs.F("max_iters", float64(opt.MaxIters)))

	// Static pre-analysis (repo-over-paper extension): blocks proven
	// unreachable or statically dead are reported as probability-0 up front
	// and the engine never forks into them.
	dead := map[int]bool{}
	var stats Stats
	if !opt.DisablePrune {
		_, span := tr.StartSpanCtx(ctx, "analysis")
		dead = analysis.DeadBlocks(progIn)
		span.Annotate(obs.F("dead_blocks", float64(len(dead))))
		stats.AnalysisTime = span.End()
	}

	// Telescoping pass (Figure 3's Telescope): estimate counter-guarded
	// deep blocks from a short periodic probe. It runs under its own
	// budget so a branchy probe cannot starve the main loop.
	teleEst := map[int]prob.P{}
	if !opt.DisableTelescope {
		teleCtx, span := tr.StartSpanCtx(ctx, "telescope")
		teleEst = telescope(teleCtx, progIn, oracle, opt, tgt, pool)
		span.Annotate(obs.F("estimates", float64(len(teleEst))))
		stats.TelescopeTime = span.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The main loop's deadline starts after the probe; Timeout remains a
	// convenience wrapper around the context deadline the engine checks at
	// every fork point.
	symCtx, cancelSym := context.WithTimeout(ctx, opt.Timeout)
	defer cancelSym()
	engine := sym.NewEngine(progIn, sym.Options{
		Greybox:  true,
		Merge:    !opt.DisableMerge,
		MaxPaths: opt.MaxPaths,
		Ctx:      symCtx,
		Locality: opt.Locality,
		Dead:     dead,
		Tracer:   tr,
		Workers:  opt.Workers,
		Pool:     pool,
		Target:   tgt,
	})
	counter := mc.NewCounter(engine.Space, oracle)
	counter.Seed = opt.Seed

	// Main iterative-deepening loop.
	cur := make([]float64, numNodes)
	prev := make([]float64, numNodes)
	best := make([]prob.P, numNodes)
	everSeen := make([]bool, numNodes)
	for i := range best {
		best[i] = prob.Zero()
	}
	stable := 0
	converged := false

	paths := engine.Initial()
	var symErr error
	prevForks, prevMCQ := 0, 0
	for iter := 0; iter < opt.MaxIters; iter++ {
		rec := obs.IterationRecord{Iter: iter}

		// Each iteration gets its own span under the run root; the engine and
		// pool calls below receive the iteration context, so their batch
		// spans (fanned out across workers) nest inside it.
		iterCtx, iterSpan := tr.StartSpanCtx(symCtx, "iter")
		engine.Opts.Ctx = iterCtx

		symStart := time.Now()
		var nps []*sym.Path
		nps, symErr = engine.Step(paths, iter)
		symDur := time.Since(symStart)
		stats.SymTime += symDur
		if symErr != nil {
			iterSpan.End()
			break
		}
		paths = nps
		stats.Paths += len(paths)
		stepPaths := len(paths)
		// Open path-condition size before merging folds it away.
		cons := 0
		for _, p := range paths {
			cons += len(p.PC)
		}

		upStart := time.Now()
		probs, upErr := sym.NodeProbsPool(iterCtx, paths, counter, numNodes, pool)
		upDur := time.Since(upStart)
		stats.UpdateProbTime += upDur
		if upErr != nil {
			// Budget ran out mid-update: the partial sums are unusable, so
			// keep the previous iteration's estimates and hand over to the
			// sampling phase.
			symErr = sym.ErrBudget
			iterSpan.End()
			break
		}

		copy(prev, cur)
		for i, p := range probs {
			cur[i] = p.Float()
			if !p.IsZero() {
				best[i] = p
				everSeen[i] = true
			}
		}
		var mergeDur time.Duration
		if !opt.DisableMerge {
			mergeStart := time.Now()
			merged, mErr := sym.MergePool(iterCtx, paths, counter, pool)
			mergeDur = time.Since(mergeStart)
			stats.MergeTime += mergeDur
			if mErr != nil {
				symErr = sym.ErrBudget
				iterSpan.End()
				break
			}
			paths = merged
		}

		md := maxDiffExcluding(cur, prev, teleEst)
		if iter > 0 && md < opt.Epsilon {
			stable++
		} else {
			stable = 0
		}

		// Per-iteration observability: the record is always collected (it
		// is bounded by MaxIters and feeds the run report); the tracer and
		// registry fan-out are nil-safe no-ops by default.
		mcStats := counter.Stats()
		rec.Paths = stepPaths
		rec.MergedTo = len(paths)
		rec.PrunedPaths = engine.Stats.PrunedPaths
		rec.Forks = engine.Stats.Forks
		rec.Constraints = cons
		rec.MaxDiff = md
		rec.Stable = stable
		rec.MCQueries = mcStats.Queries
		rec.MCHitRate = mcStats.CacheHitRate()
		rec.SymSec = symDur.Seconds()
		rec.UpdateSec = upDur.Seconds()
		rec.MergeSec = mergeDur.Seconds()
		// An iteration counts only once its record is written, so a
		// Timeout that cuts the update or merge above leaves Iterations
		// equal to len(Iters); the cut iteration's time stays in the stages.
		stats.Iters = append(stats.Iters, rec)
		stats.Iterations = len(stats.Iters)
		tr.Iteration(rec)
		// Per-span registry deltas: what this iteration added, not the
		// cumulative totals the flat metrics carry.
		iterSpan.Annotate(
			obs.F("iter", float64(iter)),
			obs.F("paths", float64(rec.Paths)),
			obs.F("merged_to", float64(rec.MergedTo)),
			obs.F("forks_delta", float64(rec.Forks-prevForks)),
			obs.F("mc_queries_delta", float64(rec.MCQueries-prevMCQ)),
			obs.F("max_diff", rec.MaxDiff),
		)
		iterSpan.End()
		prevForks, prevMCQ = rec.Forks, rec.MCQueries
		if reg != nil {
			reg.SetAll("sym", engine.Stats.Metrics())
			reg.SetAll("mc", counter.Metrics())
			reg.Gauge("core.iterations").Set(float64(stats.Iterations))
			reg.Gauge("core.live_paths").Set(float64(len(paths)))
		}

		if stable >= opt.stableRounds() {
			converged = true
			break
		}
		if symCtx.Err() != nil {
			break
		}
	}
	// External cancellation aborts the run; a Timeout expiry merely ends
	// the symbolic phase and falls through to sampling.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Store-counter telescoping: guards over sketch estimates and
	// hash-table flow counters, generalized from the measured update-block
	// probabilities (see distguard.go).
	finStart := time.Now()
	distEst := distGuardEstimates(progIn, opt.Locality, func(id int) (prob.P, bool) {
		if id < numNodes && everSeen[id] {
			return best[id], true
		}
		return prob.Zero(), false
	})

	// Sampling fallback for whatever the symbolic loop never reached:
	// either the loop did not converge, or blocks remain that neither the
	// loop nor telescoping covered (the "unconverged portion").
	unreached := 0
	for _, blk := range progIn.Nodes() {
		_, tele := teleEst[blk.ID]
		_, dist := distEst[blk.ID]
		if !tele && !dist && !everSeen[blk.ID] && !dead[blk.ID] {
			unreached++
		}
	}
	stats.FinalizeTime += time.Since(finStart)
	sampled := map[int]float64{}
	if !opt.DisableSampling && (!converged || symErr != nil || unreached > 0) {
		sampCtx, span := tr.StartSpanCtx(ctx, "sample")
		sampled = samplePaths(sampCtx, progIn, oracle, opt, tgt, pool)
		span.Annotate(obs.F("sampled_nodes", float64(len(sampled))))
		stats.SampleTime = span.End()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	// Assemble the final profile with source attribution: telescoped
	// estimates own their nodes; converged symbex estimates everything it
	// reached; sampling covers the remainder.
	finStart = time.Now()
	nodes := make([]NodeProb, 0, numNodes)
	coverage := 0
	for _, blk := range progIn.Nodes() {
		np := NodeProb{ID: blk.ID, Label: blk.Label, P: prob.Zero(), Source: SrcUnreached}
		if dead[blk.ID] {
			np.Source = SrcPruned
			stats.PrunedNodes++
		} else if te, ok := teleEst[blk.ID]; ok && !te.IsZero() {
			np.P = te
			np.Source = SrcTelescope
			stats.TelescopedNode++
		} else if everSeen[blk.ID] {
			np.P = best[blk.ID]
			np.Source = SrcSymbex
		} else if de, ok := distEst[blk.ID]; ok && !de.IsZero() {
			np.P = de
			np.Source = SrcTelescope
			stats.TelescopedNode++
		} else if sp, ok := sampled[blk.ID]; ok && sp > 0 {
			np.P = prob.FromFloat(sp)
			np.Source = SrcSampled
			stats.SampledNodes++
		}
		if np.Source != SrcUnreached {
			coverage++
		}
		nodes = append(nodes, np)
	}
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].P.Less(nodes[j].P) })
	stats.FinalizeTime += time.Since(finStart)

	stats.Duration = time.Since(start)
	stats.Counter = counter.Stats()
	stats.Engine = engine.Stats
	stats.OracleQueries = oracle.QueryCount()
	stats.Pool = pool.Metrics()
	stats.Cache = counter.CacheMetrics()
	stats.Hot = engine.Hot.Snapshot()

	pf := &Profile{
		Program:   progIn.Name,
		Nodes:     nodes,
		Converged: converged,
		Coverage:  float64(coverage) / math.Max(1, float64(numNodes)),
		Stats:     stats,
	}
	reg.SetAll("", stats.Metrics())
	tr.Event("core", "probprof done",
		obs.F("wall_sec", stats.Duration.Seconds()),
		obs.F("converged", b2f(converged)), obs.F("coverage", pf.Coverage))
	return pf, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// maxDiffExcluding computes the L∞ distance between consecutive profiles,
// skipping nodes owned by telescoping (their estimates do not come from the
// main loop).
func maxDiffExcluding(cur, prev []float64, tele map[int]prob.P) float64 {
	d := 0.0
	for i := range cur {
		if _, ok := tele[i]; ok {
			continue
		}
		if diff := math.Abs(cur[i] - prev[i]); diff > d {
			d = diff
		}
	}
	return d
}

// String renders the profile as an aligned table, rarest blocks first.
func (pf *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile of %s: %d blocks, coverage %.0f%%, converged=%v\n",
		pf.Program, len(pf.Nodes), pf.Coverage*100, pf.Converged)
	if pf.Stats.PrunedNodes > 0 || pf.Stats.Engine.PrunedPaths > 0 {
		explored := pf.Stats.Paths
		fmt.Fprintf(&b, "pruning: %d dead block(s) skipped; paths %d -> %d (%d discarded at dead blocks)\n",
			pf.Stats.PrunedNodes, explored+pf.Stats.Engine.PrunedPaths, explored,
			pf.Stats.Engine.PrunedPaths)
	}
	fmt.Fprintf(&b, "%-6s %-28s %-14s %s\n", "rank", "block", "P(per pkt)", "source")
	for i, n := range pf.Nodes {
		fmt.Fprintf(&b, "%-6d %-28s %-14s %s\n", i+1, n.Label, n.P, n.Source)
	}
	return b.String()
}
