package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dut"
	"repro/internal/greybox"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/p4c"
	"repro/internal/par"
	"repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/target"
	"repro/internal/trace"
)

// noTimeout stands in for the profiler's wall-clock Timeout: far above any
// run, so every profile stops on MaxIters, convergence or its path budget.
const noTimeout = time.Hour

// The defaults core.ProbProf applies to its own copy of the options when
// MaxIters, Timeout or MaxPaths is left at zero.
const (
	defaultMaxIters = 12
	defaultTimeout  = 10 * time.Second
	defaultMaxPaths = 200000
)

// profTask is one program profiled by a profile workload.
type profTask struct {
	name  string
	prog  *ir.Program
	trace *trace.Trace // the oracle's traffic, generated at set-up
	opt   core.Options
	// budgetStop marks a program expected to exhaust its path budget.
	budgetStop bool
	// loopIters bounds the traced symbolic loop of the probes.
	loopIters int
}

type profileRunner struct {
	cfg   *config
	tasks []profTask
}

// setupProfileDeep: Blink and NetWarden, bounded by MaxIters, each against
// its own trace oracle. Model counting dominates both.
func setupProfileDeep(cfg *config, tr *tracer) (runner, error) {
	iters := map[string]int{"Blink (S5)": 6, "NetWarden (S11)": 4}
	if cfg.tiny {
		iters = map[string]int{"Blink (S5)": 2, "NetWarden (S11)": 2}
	}
	r := &profileRunner{cfg: cfg}
	for _, name := range []string{"Blink (S5)", "NetWarden (S11)"} {
		t, err := zooTask(cfg, tr, name)
		if err != nil {
			return nil, err
		}
		t.opt.MaxIters = iters[name]
		t.loopIters = (iters[name] + 1) / 2
		r.tasks = append(r.tasks, t)
	}
	return r, nil
}

// setupProfileWide: switch.p4 with a path budget its first packet exhausts,
// plus every other zoo program and the example .p4w programs at default
// options. Symbolic forking, feasibility checks and sampling dominate.
func setupProfileWide(cfg *config, tr *tracer) (runner, error) {
	r := &profileRunner{cfg: cfg}
	for i, m := range programs.All() {
		if m.Name == "Blink (S5)" || m.Name == "NetWarden (S11)" {
			continue
		}
		if cfg.tiny && i%4 != 0 && m.Name != "switch.p4" {
			continue
		}
		t, err := zooTask(cfg, tr, m.Name)
		if err != nil {
			return nil, err
		}
		t.loopIters = 4
		if m.Name == "switch.p4" {
			t.opt.MaxPaths = 30000
			if cfg.tiny {
				t.opt.MaxPaths = 2000
			}
			t.budgetStop = true
			t.loopIters = 1 // its first step alone exhausts the budget
		}
		r.tasks = append(r.tasks, t)
	}
	files, err := filepath.Glob(filepath.Join(cfg.root, "examples", "programs", "*.p4w"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no example programs under %s", filepath.Join(cfg.root, "examples", "programs"))
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sp := tr.start("p4c.parse", -1)
		prog, err := p4c.Parse(string(src))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		lint(tr, prog)
		sp = tr.start("trace.generate", -1)
		t := trace.Generate(trace.GenOptions{Seed: cfg.seed})
		tr.end(sp)
		r.tasks = append(r.tasks, profTask{
			name: filepath.Base(f), prog: prog, trace: t, loopIters: 4,
			opt: core.Options{Seed: cfg.seed, Workers: workers, Timeout: noTimeout},
		})
	}
	return r, nil
}

// zooTask builds a zoo program, lints it and generates its oracle traffic.
func zooTask(cfg *config, tr *tracer, name string) (profTask, error) {
	m, ok := programs.ByName(name)
	if !ok {
		return profTask{}, fmt.Errorf("program %q is not in the zoo", name)
	}
	prog := m.Build()
	lint(tr, prog)
	sp := tr.start("trace.generate", -1)
	t := trace.Generate(m.Workload(cfg.seed))
	tr.end(sp)
	return profTask{
		name: name, prog: prog, trace: t,
		opt: core.Options{Seed: cfg.seed, Workers: workers, Timeout: noTimeout},
	}, nil
}

// lint runs the static analysis every loaded program goes through.
func lint(tr *tracer, prog *ir.Program) {
	sp := tr.start("analysis.lint", -1)
	analysis.Analyze(prog)
	tr.end(sp)
}

// timedOracle wraps a traffic oracle, counting and timing its queries.
type timedOracle struct {
	inner   dist.Oracle
	queries atomic.Int64
	ns      atomic.Int64
}

func (o *timedOracle) FieldDist(field string) (dist.Dist, bool) {
	t := time.Now()
	d, ok := o.inner.FieldDist(field)
	o.ns.Add(int64(time.Since(t)))
	o.queries.Add(1)
	return d, ok
}

func (o *timedOracle) PairEqualProb(field string) (float64, bool) {
	t := time.Now()
	p, ok := o.inner.PairEqualProb(field)
	o.ns.Add(int64(time.Since(t)))
	o.queries.Add(1)
	return p, ok
}

func (o *timedOracle) QueryCount() int { return o.inner.QueryCount() }

// stageLayers maps the profiler's stage totals onto layers, in the order
// the stages first run.
var stageLayers = []struct{ stage, span string }{
	{"analysis", "analysis.prune"},
	{"telescope", "core.telescope"},
	{"sym", "sym.step"},
	{"updateprob", "mc.nodeprobs"},
	{"merge", "sym.merge"},
	{"sample", "dut.sample"},
	{"finalize", "core.finalize"},
}

func (r *profileRunner) pass(tr *tracer) (*passResult, error) {
	res := &passResult{digests: map[string]string{}, layer: map[string]float64{}}
	buildsBefore := solver.MetricsView()["builds"]
	var hits, queries, util float64
	start := time.Now()
	for _, t := range r.tasks {
		oracle := &timedOracle{inner: trace.NewQueryProcessor(t.trace)}
		sp := tr.start("core.probprof", -1)
		t0 := time.Now()
		pf, err := core.ProbProf(t.prog, oracle, t.opt)
		d := time.Since(t0)
		tr.end(sp)
		res.attempted++
		res.opsMS = append(res.opsMS, float64(d)/1e6)
		if err != nil {
			res.fail("%s: %v", t.name, err)
			continue
		}
		if msg := stopProblem(t, pf); msg != "" {
			res.fail("%s: %s", t.name, msg)
		}
		view, err := profileView(pf, t.prog, t.opt)
		if err != nil {
			return nil, err
		}
		res.digests["profile/"+t.name] = digest(view)

		st := pf.Stats
		stages := st.Stages()
		// The profiler reports each stage's total; laid end to end under
		// the call's span they attribute its time to layers.
		at := t0
		for _, sl := range stageLayers {
			sd := time.Duration(stages[sl.stage] * float64(time.Second))
			tr.add(sl.span, sp, at, at.Add(sd))
			at = at.Add(sd)
		}
		for _, s := range []string{"sym", "updateprob", "merge", "sample", "telescope"} {
			res.layer["core.stage."+s+"_s"] += stages[s]
		}
		res.layer["core.iterations"] += float64(st.Iterations)
		res.layer["core.paths"] += float64(st.Paths)
		res.layer["sym.forks"] += float64(st.Engine.Forks)
		res.layer["trace.oracle_queries"] += float64(oracle.queries.Load())
		res.layer["trace.oracle_s"] += float64(oracle.ns.Load()) / 1e9
		queries += float64(st.Counter.Queries)
		hits += float64(st.Counter.CacheHits)
		util += st.Pool["utilization"] * d.Seconds()
	}
	res.wall = time.Since(start)
	res.layer["mc.queries"] = queries
	if queries > 0 {
		res.layer["mc.cache_hit_ratio"] = hits / queries
	}
	res.layer["par.utilization"] = util / res.wall.Seconds()
	res.layer["solver.builds"] = solver.MetricsView()["builds"] - buildsBefore
	return res, nil
}

// stopProblem explains why a profile stopped somewhere other than where
// the workload expects; "" when the stop is expected. A profile that ran
// into its wall-clock Timeout counts as failed, not as a fast run.
func stopProblem(t profTask, pf *core.Profile) string {
	maxIters, timeout := t.opt.MaxIters, t.opt.Timeout
	if maxIters == 0 {
		maxIters = defaultMaxIters
	}
	if timeout == 0 {
		timeout = defaultTimeout
	}
	st := pf.Stats
	if pf.Converged || st.Iterations >= maxIters {
		return ""
	}
	if st.SymTime+st.UpdateProbTime+st.MergeTime >= timeout {
		return fmt.Sprintf("stopped on its wall-clock Timeout after %d of %d iterations", st.Iterations, maxIters)
	}
	if t.budgetStop {
		return ""
	}
	return fmt.Sprintf("stopped on its path budget after %d of %d iterations", st.Iterations, maxIters)
}

// profileView renders the profile the same way for offline and served
// runs: the report fields that describe the answer, not the run.
func profileView(pf *core.Profile, prog *ir.Program, opt core.Options) ([]byte, error) {
	rep := core.NewReport(pf, opt)
	core.AttachIFC(rep, prog, pf)
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return projectReport(data)
}

// projectReport keeps the report keys the serving smoke test compares.
func projectReport(data []byte) ([]byte, error) {
	var full map[string]json.RawMessage
	if err := json.Unmarshal(data, &full); err != nil {
		return nil, err
	}
	keep := map[string]json.RawMessage{}
	for _, k := range []string{"schema_version", "kind", "program", "options", "converged", "coverage", "nodes", "ifc"} {
		if v, ok := full[k]; ok {
			keep[k] = v
		}
	}
	return json.Marshal(keep)
}

// recorded is a path condition captured from the traced symbolic loop.
type recorded struct {
	task  int
	space *solver.Space
	pc    []solver.Constraint
}

func (r *profileRunner) probes(tr *tracer, layer map[string]float64) error {
	pcs, err := r.tracedLoop(tr, layer)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	rng.Shuffle(len(pcs), func(i, j int) { pcs[i], pcs[j] = pcs[j], pcs[i] })
	limit := 200
	if r.cfg.tiny {
		limit = 20
	}
	if len(pcs) > limit {
		pcs = pcs[:limit]
	}
	sort.SliceStable(pcs, func(i, j int) bool { return pcs[i].task < pcs[j].task })
	r.countProbes(tr, layer, pcs)
	solverProbes(tr, layer, pcs)
	greyboxProbes(tr, layer)
	var progs []*ir.Program
	var traces []*trace.Trace
	for _, t := range r.tasks {
		progs = append(progs, t.prog)
		traces = append(traces, t.trace)
	}
	dutProbe(tr, layer, progs, traces)
	return nil
}

// tracedLoop runs the profiler's main loop from the layers' public calls —
// Engine.Step, NodeProbsPool and MergePool — so each is timed on its own,
// and records the path conditions it sees.
func (r *profileRunner) tracedLoop(tr *tracer, layer map[string]float64) ([]recorded, error) {
	var out []recorded
	var forks int
	for ti, t := range r.tasks {
		maxPaths := t.opt.MaxPaths
		if maxPaths == 0 {
			maxPaths = defaultMaxPaths
		}
		root := tr.start("bench.loop", -1)
		pool := par.New(workers, nil, "pool")
		engine := sym.NewEngine(t.prog, sym.Options{
			Greybox: true, Merge: true, MaxPaths: maxPaths, Ctx: context.Background(),
			Dead: analysis.DeadBlocks(t.prog), Workers: workers, Pool: pool, Target: target.Idealized,
		})
		counter := mc.NewCounter(engine.Space, trace.NewQueryProcessor(t.trace))
		counter.Seed = t.opt.Seed
		paths := engine.Initial()
		n := len(t.prog.Nodes())
		for iter := 0; iter < t.loopIters; iter++ {
			sp := tr.start("sym.step", root)
			next, err := engine.Step(paths, iter)
			tr.end(sp)
			if err != nil {
				break // path budget: the profiler hands over to sampling here
			}
			paths = next
			for _, p := range paths {
				out = append(out, recorded{task: ti, space: engine.Space, pc: append([]solver.Constraint(nil), p.PC...)})
			}
			sp = tr.start("mc.nodeprobs", root)
			_, err = sym.NodeProbsPool(context.Background(), paths, counter, n, pool)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", t.name, err)
			}
			sp = tr.start("sym.merge", root)
			paths, err = sym.MergePool(context.Background(), paths, counter, pool)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", t.name, err)
			}
		}
		forks += engine.Stats.Forks
		tr.end(root)
	}
	// Only the loop's spans are children of bench.loop; the pass's
	// reconstructed stage spans sit under core.probprof.
	step, merge := loopTotal(tr, "sym.step"), loopTotal(tr, "sym.merge")
	layer["sym.step_s"] = step
	layer["sym.merge_s"] = merge
	layer["sym.forks"] = float64(forks)
	if forks > 0 {
		layer["sym.step_us_per_fork"] = step * 1e6 / float64(forks)
	}
	return out, nil
}

// loopTotal sums the named spans whose parent is a bench.loop span.
func loopTotal(tr *tracer, name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var ns int64
	for _, s := range tr.spans {
		if s.Name == name && s.Parent >= 0 && tr.spans[s.Parent].Name == "bench.loop" {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// countProbes times Counter.ProbOf on recorded path conditions: with a
// cold and then a warm memo cache, and uncached against the weighted trace
// oracle and against the uniform header space.
func (r *profileRunner) countProbes(tr *tracer, layer map[string]float64, pcs []recorded) {
	if len(pcs) == 0 {
		return
	}
	timeAll := func(name string, counterFor func(recorded) *mc.Counter) float64 {
		sp := tr.start("bench.probe", -1)
		defer tr.end(sp)
		var total time.Duration
		for _, rc := range pcs {
			c := counterFor(rc)
			q := tr.start(name, sp)
			t0 := time.Now()
			c.ProbOf(rc.pc)
			total += time.Since(t0)
			tr.end(q)
		}
		return float64(total) / 1e3 / float64(len(pcs))
	}
	counters := map[string]map[*solver.Space]*mc.Counter{}
	get := func(kind string, rc recorded) *mc.Counter {
		if counters[kind] == nil {
			counters[kind] = map[*solver.Space]*mc.Counter{}
		}
		c := counters[kind][rc.space]
		if c == nil {
			var oracle dist.Oracle
			if kind != "uniform" {
				oracle = trace.NewQueryProcessor(r.tasks[rc.task].trace)
			}
			c = mc.NewCounter(rc.space, oracle)
			c.Seed = r.cfg.seed
			c.DisableCache = kind == "weighted" || kind == "uniform"
			counters[kind][rc.space] = c
		}
		return c
	}
	layer["mc.cold_count_us"] = timeAll("mc.count", func(rc recorded) *mc.Counter { return get("cached", rc) })
	layer["mc.warm_count_us"] = timeAll("mc.count", func(rc recorded) *mc.Counter { return get("cached", rc) })
	layer["mc.weighted_count_us"] = timeAll("mc.count", func(rc recorded) *mc.Counter { return get("weighted", rc) })
	layer["mc.uniform_count_us"] = timeAll("mc.count", func(rc recorded) *mc.Counter { return get("uniform", rc) })
	var fallbacks, comps float64
	for _, c := range counters["weighted"] {
		st := c.Stats()
		fallbacks += float64(st.MCFallbacks)
		comps += float64(st.MCFallbacks + st.ExactClasses + st.ExactPairs)
	}
	if comps > 0 {
		layer["mc.fallback_ratio"] = fallbacks / comps
	}
}

// solverProbes times feasibility checks and witness search on recorded
// path conditions.
func solverProbes(tr *tracer, layer map[string]float64, pcs []recorded) {
	if len(pcs) == 0 {
		return
	}
	sp := tr.start("bench.probe", -1)
	defer tr.end(sp)
	var feas, solve time.Duration
	for i, rc := range pcs {
		q := tr.start("solver.feasible", sp)
		t0 := time.Now()
		solver.Feasible(rc.pc, rc.space)
		feas += time.Since(t0)
		tr.end(q)
		q = tr.start("solver.solve", sp)
		t0 = time.Now()
		solver.Solve(rc.pc, rc.space, solver.SolveOptions{Seed: int64(i)})
		solve += time.Since(t0)
		tr.end(q)
	}
	layer["solver.feasible_us"] = float64(feas) / 1e3 / float64(len(pcs))
	layer["solver.solve_us"] = float64(solve) / 1e3 / float64(len(pcs))
}

// greyboxProbes times the probabilistic data-store updates: each round
// starts from an empty store and applies a fixed run of updates, because a
// store's value distribution grows with every update.
func greyboxProbes(tr *tracer, layer map[string]float64) {
	const rounds, perRound = 200, 64
	probe := func(name string, round func()) float64 {
		sp := tr.start(name, -1)
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			round()
		}
		d := time.Since(t0)
		tr.end(sp)
		return float64(d) / float64(rounds*perRound)
	}
	layer["greybox.hash_update_ns"] = probe("greybox.hash_update", func() {
		h := greybox.NewHashStore(1024)
		h.ApplyEmptyWrite(1)
		for i := 1; i < perRound; i++ {
			h.ApplyHitInc(1)
		}
	})
	layer["greybox.bloom_insert_ns"] = probe("greybox.bloom_insert", func() {
		b := greybox.NewBloomStore(4096, 3)
		for i := 0; i < perRound; i++ {
			b.Insert()
		}
	})
	layer["greybox.sketch_update_ns"] = probe("greybox.sketch_update", func() {
		s := greybox.NewSketchStore(4, 1024)
		for i := 0; i < perRound; i++ {
			s.Update(1)
		}
	})
}

// dutProbe pushes each program's own traffic through a fresh concrete
// switch, timing packets and counting allocations.
func dutProbe(tr *tracer, layer map[string]float64, progs []*ir.Program, traces []*trace.Trace) {
	var ns time.Duration
	var pkts int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, prog := range progs {
		sw := dut.New(prog, dut.Config{})
		sp := tr.start("dut.process", -1)
		t0 := time.Now()
		for j := range traces[i].Packets {
			sw.Process(&traces[i].Packets[j])
		}
		ns += time.Since(t0)
		tr.end(sp)
		pkts += len(traces[i].Packets)
	}
	runtime.ReadMemStats(&after)
	if pkts > 0 {
		layer["dut.process_ns"] = float64(ns) / float64(pkts)
		layer["dut.allocs_per_pkt"] = float64(after.Mallocs-before.Mallocs) / float64(pkts)
	}
}

func (r *profileRunner) close() {}
