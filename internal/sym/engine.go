package sym

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/greybox"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/solver"
	"repro/internal/target"
)

// ErrBudget is returned when exploration exceeds the path budget or
// deadline — the engine's "timeout" signal, which the evaluation reports
// exactly as the paper reports KLEE timeouts.
var ErrBudget = errors.New("sym: exploration budget exceeded")

// Options configures an engine run.
type Options struct {
	// Greybox folds hash tables / Bloom filters / sketches into
	// probabilistic data stores (P4wn). When false, the engine materializes
	// the underlying arrays and forks per possible slot (KLEE baseline).
	Greybox bool
	// Merge coalesces paths with identical concrete state between packets.
	Merge bool
	// MaxPaths bounds the live path count (0 = 1<<20). A Step trips
	// ErrBudget as soon as the bound is certain to be exceeded: inside a
	// block, after each path's forks are appended, when those paths plus
	// the outputs of the step's finished tasks pass MaxPaths. Within one
	// statement both counts only grow, so the check after the statement
	// would trip as well: the early trip changes no step's outcome, it only
	// skips forking the rest of the statement.
	MaxPaths int
	// DropOptimization halts a packet's processing at a Drop action —
	// one of the two Vera branch-cutting techniques ported to P4wn
	// (paper §A.2).
	DropOptimization bool
	// Layout pins header fields to concrete values for every symbolic
	// packet — the second ported Vera technique ("concrete packet
	// layouts"): branchy multi-protocol pipelines are analyzed one packet
	// layout at a time instead of across the full header space.
	Layout map[string]uint64
	// Locality overrides greybox key locality (0 = greybox default).
	Locality float64
	// Dead lists CFG node IDs proven statically infeasible by the analysis
	// package (repo-over-paper extension). A path that would enter a dead
	// block is discarded instead of forked further: the block's probability
	// is exactly zero, so no mass is lost. The engine takes a plain ID set
	// rather than an analysis type to keep the packages decoupled.
	Dead map[int]bool
	// Ctx cancels exploration mid-step and carries its wall-clock budget
	// (context.WithDeadline / WithTimeout): it is checked at every fork
	// point, so a path-explosion step cannot overshoot the caller's budget.
	// Nil means no cancellation and no deadline.
	Ctx context.Context
	// Tracer receives per-step events; nil (the default) is a no-op.
	Tracer *obs.Tracer
	// Workers is the degree of parallelism for frontier stepping (<= 0
	// selects runtime.GOMAXPROCS). Output is bit-identical for every worker
	// count: each input path executes in an isolated task and results are
	// concatenated in input order.
	Workers int
	// Target is the device model the engine executes against: NewEngine
	// lowers the program to it once (clamped stores, installed table
	// entries), and it supplies the per-pass stage budget, recirculation
	// and collision semantics. Nil (and target.Idealized) is the
	// unconstrained switch, bit-for-bit identical to the pre-target engine.
	Target *target.Model
	// Pool overrides the engine's worker pool, letting the profiler share
	// one pool (and its utilization metrics) across exploration, counting,
	// and sampling. Nil means the engine builds its own from Workers.
	Pool *par.Pool
}

// Stats counts engine work.
type Stats struct {
	Forks          int
	PathsExplored  int
	FeasibilityChk int
	Merges         int
	ArrayBytes     int // baseline array state cloned (cost proxy)
	PrunedPaths    int // paths discarded on entry to a statically-dead block
	GreyArms       int // greybox data-store arms taken (weighted forks)
}

// Metrics flattens the stats into the registry/report namespace.
func (s Stats) Metrics() map[string]float64 {
	return map[string]float64{
		"forks":            float64(s.Forks),
		"paths_explored":   float64(s.PathsExplored),
		"feasibility_chks": float64(s.FeasibilityChk),
		"merges":           float64(s.Merges),
		"array_bytes":      float64(s.ArrayBytes),
		"pruned_paths":     float64(s.PrunedPaths),
		"grey_arms":        float64(s.GreyArms),
	}
}

// Engine interprets one program symbolically.
//
// Step fans the frontier out across a worker pool: every input path runs in
// an isolated task (a worker view of the engine with its own stats and havoc
// namespace) and the forked outputs are concatenated in input order, so the
// result — path ordering, fork counts, havoc variable names — is
// bit-identical for every worker count.
type Engine struct {
	Prog  *ir.Program
	Space *solver.Space
	Opts  Options
	Stats Stats

	// Hot accumulates per-block exploration cost (visits, forks, solver
	// time). The pointer is shared by every worker view — the accumulators
	// are atomic — so one snapshot covers the whole run.
	Hot *HotStats

	pool *par.Pool
	tbl  *tableVars
	lay  *layout // slot layout of Prog, shared by every path

	// Worker-view state: each Step task executes on a shallow copy of the
	// engine carrying its own havoc namespace, local stats, and a handle on
	// the step's shared live-path counter. curBlk tracks the block currently
	// executing so forks and solver time attribute to it (-1 outside any
	// block).
	havocN  int
	havocNS string
	live    *atomic.Int64
	tick    int
	curBlk  int

	// tripAfterStmt restores the budget check that runs only once a block
	// statement has forked every path; the differential test runs it as the
	// reference for execBlock's per-path check.
	tripAfterStmt bool
}

// tableVars holds the lazily created persistent key variables of symbolic
// table entries, shared across worker views behind a mutex. The variables'
// names depend only on the table, so whichever worker creates them first
// registers the same set a sequential run would.
type tableVars struct {
	mu sync.Mutex
	m  map[string][][]solver.Var
}

// NewEngine builds an engine over the program as opts.Target holds it
// (Engine.Prog is the lowered program) and lays out its state slots once;
// the Space is created from the program's fields and grows as havoc
// variables are registered.
func NewEngine(p *ir.Program, opts Options) *Engine {
	if opts.MaxPaths == 0 {
		opts.MaxPaths = 1 << 20
	}
	pool := opts.Pool
	if pool == nil {
		pool = par.New(opts.Workers, opts.Tracer, "sym")
	}
	prog := opts.Target.Lower(p)
	return &Engine{Prog: prog, Space: solver.NewSpace(p.Fields), Opts: opts,
		Hot:  NewHotStats(len(p.Nodes())),
		pool: pool, tbl: &tableVars{m: map[string][][]solver.Var{}}, lay: newLayout(prog), curBlk: -1}
}

// Pool returns the engine's worker pool (shared with the profiler when
// Options.Pool was set).
func (e *Engine) Pool() *par.Pool { return e.pool }

// Initial returns the empty-state starting path set.
func (e *Engine) Initial() []*Path {
	return []*Path{newPath(e.lay)}
}

// workerView builds the execution context for one Step task: a shallow copy
// sharing the program, space, options, pool, and table variables, but with
// zeroed stats and a havoc namespace derived from (packet, task index) so
// fresh-variable names do not depend on the schedule.
func (e *Engine) workerView(pkt, task int, live *atomic.Int64) *Engine {
	w := *e
	w.Stats = Stats{}
	w.havocN = 0
	w.havocNS = strconv.Itoa(pkt) + "_" + strconv.Itoa(task) + "_"
	w.live = live
	w.tick = 0
	w.curBlk = -1
	return &w
}

// countFork records a path fork: the sequential stats counter plus the
// per-block hot accumulator for the block being executed.
func (e *Engine) countFork() {
	e.Stats.Forks++
	e.Hot.Fork(e.curBlk)
}

// timedFeasible runs one solver feasibility check of the path's condition,
// attributing its wall time to the current block. Only the constraints
// connected to those added since the path's last successful check are
// rebuilt (solver.FeasibleFrom); on success the whole condition becomes the
// known-feasible prefix. Callers account FeasibilityChk themselves.
func (e *Engine) timedFeasible(p *Path) bool {
	start := time.Now()
	ok := solver.FeasibleFrom(p.PC, p.feasN, e.Space)
	e.Hot.AddSolver(e.curBlk, time.Since(start))
	if ok {
		p.feasN = len(p.PC)
	}
	return ok
}

// add accumulates worker-view stats; plain integer sums, so folding the
// per-task stats in input order reproduces the sequential totals exactly.
func (s *Stats) add(o Stats) {
	s.Forks += o.Forks
	s.PathsExplored += o.PathsExplored
	s.FeasibilityChk += o.FeasibilityChk
	s.Merges += o.Merges
	s.ArrayBytes += o.ArrayBytes
	s.PrunedPaths += o.PrunedPaths
	s.GreyArms += o.GreyArms
}

// Step processes one more symbolic packet (index pkt) on every path,
// returning the forked path set. The caller reads per-packet visit sets and
// probabilities off the returned paths before the next Step. Input paths
// are disjoint object graphs (forks clone before mutating), so tasks are
// independent; the shared live counter keeps the MaxPaths budget global.
// A step that exceeds the budget returns (nil, ErrBudget) at the first
// fork after which the excess is certain (see Options.MaxPaths), so its
// work counters in Stats stop there too.
func (e *Engine) Step(paths []*Path, pkt int) ([]*Path, error) {
	ctx := e.Opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([][]*Path, len(paths))
	stats := make([]Stats, len(paths))
	var live atomic.Int64
	err := e.pool.Run(ctx, len(paths), func(i int) error {
		w := e.workerView(pkt, i, &live)
		defer func() { stats[i] = w.Stats }()
		if err := w.checkBudget(0); err != nil {
			return err
		}
		p := paths[i]
		p.resetPacket()
		w.pinLayout(p, pkt)
		nps, err := w.exec(p, e.Prog.Root, pkt)
		if err != nil {
			return err
		}
		results[i] = nps
		live.Add(int64(len(nps)))
		return nil
	})
	for i := range stats {
		e.Stats.add(stats[i])
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, ErrBudget
		}
		return nil, err
	}
	total := 0
	for i := range results {
		total += len(results[i])
	}
	out := make([]*Path, 0, total)
	for i := range results {
		out = append(out, results[i]...)
	}
	e.Stats.PathsExplored += len(out)
	if len(out) > e.Opts.MaxPaths {
		return nil, ErrBudget
	}
	e.Opts.Tracer.Event("sym", "step",
		obs.F("pkt", float64(pkt)), obs.F("paths", float64(len(out))),
		obs.F("forks", float64(e.Stats.Forks)), obs.F("pruned", float64(e.Stats.PrunedPaths)))
	return out, nil
}

// pinLayout constrains the new packet's fields to the configured layout.
func (e *Engine) pinLayout(p *Path, pkt int) {
	if len(e.Opts.Layout) == 0 {
		return
	}
	for field, val := range e.Opts.Layout {
		p.PC = append(p.PC, solver.NewCmp(ir.CmpEq,
			solver.VarExpr(solver.Var{Pkt: pkt, Field: field}),
			solver.ConstExpr(int64(val))))
	}
}

// Run executes t symbolic packets from the initial state.
func (e *Engine) Run(t int) ([]*Path, error) {
	paths := e.Initial()
	var err error
	for i := 0; i < t; i++ {
		paths, err = e.Step(paths, i)
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

func (e *Engine) checkBudget(local int) error {
	if e.live != nil {
		local += int(e.live.Load())
	}
	if local > e.Opts.MaxPaths {
		return ErrBudget
	}
	if e.Opts.Ctx != nil {
		select {
		case <-e.Opts.Ctx.Done():
			return ErrBudget
		default:
		}
	}
	return nil
}

// tickBudget is the stride-based budget check for fork-free hot loops
// (greybox store updates, baseline aliasing scans): every 64th call runs the
// full deadline/cancellation check, so a step that grows no paths — and thus
// never reaches a fork-point check — still honors the context.
func (e *Engine) tickBudget(local int) error {
	e.tick++
	if e.tick%64 != 0 {
		return nil
	}
	return e.checkBudget(local)
}

// ---- expression evaluation ----

// havoc mints a fresh unknown. Names are namespaced by the worker view's
// (packet, task) coordinates rather than a global counter, so they are
// identical for every worker count — a schedule-dependent name would leak
// into constraint strings and break bit-identical profiles.
func (e *Engine) havoc(pkt int, dom solver.Interval) Value {
	name := "__h" + e.havocNS + strconv.Itoa(e.havocN)
	e.havocN++
	v := solver.Var{Pkt: pkt, Field: name}
	e.Space.SetDomain(v, dom)
	return LinVal(solver.VarExpr(v))
}

// maskedFieldVar returns the derived variable for (field & mask), which the
// model counter understands natively; it is reused across references so
// that repeated tests of the same flag bits correlate correctly.
func (e *Engine) maskedFieldVar(base solver.Var, mask uint64) Value {
	v := solver.Var{Pkt: base.Pkt, Field: fmt.Sprintf("%s&%d", base.Field, mask)}
	e.Space.SetDomain(v, solver.Interval{Lo: 0, Hi: mask})
	return LinVal(solver.VarExpr(v))
}

// singleVar extracts (var, ok) when the value is exactly one unit-coefficient
// variable with no constant.
func singleVar(v Value) (solver.Var, bool) {
	if v.Kind != VLin || len(v.E.Terms) != 1 || v.E.K != 0 || v.E.Terms[0].Coef != 1 {
		return solver.Var{}, false
	}
	return v.E.Terms[0].Var, true
}

func (e *Engine) evalExpr(p *Path, x ir.Expr, pkt int) Value {
	switch t := x.(type) {
	case ir.Const:
		return ConcreteVal(t.V)
	case ir.FieldRef:
		return LinVal(solver.VarExpr(solver.Var{Pkt: pkt, Field: t.Name}))
	case ir.RegRef:
		return p.regs[p.lay.MustRegSlot(t.Reg)]
	case ir.MetaRef:
		return p.meta[p.lay.MustMetaSlot(t.Name)]
	case ir.Bin:
		return e.evalBin(p, t, pkt)
	case ir.HashExpr:
		return e.evalHash(p, t, pkt)
	}
	return ConcreteVal(0)
}

func (e *Engine) evalBin(p *Path, b ir.Bin, pkt int) Value {
	a := e.evalExpr(p, b.A, pkt)
	c := e.evalExpr(p, b.B, pkt)

	if a.IsConcrete() && c.IsConcrete() {
		return ConcreteVal(applyBinOp(b.Op, a.C, c.C))
	}

	switch b.Op {
	case ir.OpAdd, ir.OpSub:
		if la, ok := a.Lin(); ok {
			if lc, ok2 := c.Lin(); ok2 {
				if b.Op == ir.OpAdd {
					return LinVal(la.Add(lc))
				}
				return LinVal(la.Sub(lc))
			}
		}
		// Distribution arithmetic: shift by a concrete delta.
		if a.Kind == VDist && c.IsConcrete() {
			d := a.D.Clone()
			if b.Op == ir.OpAdd {
				d.Shift(int64(c.C))
			} else {
				d.Shift(-int64(c.C))
			}
			return DistVal(d)
		}
	case ir.OpMul:
		if a.Kind == VLin && c.IsConcrete() {
			return LinVal(a.E.Scale(int64(c.C)))
		}
		if c.Kind == VLin && a.IsConcrete() {
			return LinVal(c.E.Scale(int64(a.C)))
		}
	case ir.OpAnd:
		// (field & mask) gets a derived variable with an exact
		// distribution instead of a blind havoc.
		if v, ok := singleVar(a); ok && c.IsConcrete() {
			return e.maskedFieldVar(v, c.C)
		}
		if v, ok := singleVar(c); ok && a.IsConcrete() {
			return e.maskedFieldVar(v, a.C)
		}
	case ir.OpMod:
		if a.Kind == VDist && c.IsConcrete() && c.C > 0 {
			return DistVal(a.D.Map(func(v uint64) uint64 { return v % c.C }))
		}
		if c.IsConcrete() && c.C > 0 {
			return e.havoc(pkt, solver.Interval{Lo: 0, Hi: c.C - 1})
		}
	}
	// Anything else over symbolic operands is havocked.
	return e.havoc(pkt, solver.FullInterval(32))
}

func applyBinOp(op ir.BinOp, a, b uint64) uint64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	case ir.OpShl:
		return a << (b & 63)
	case ir.OpShr:
		return a >> (b & 63)
	}
	return 0
}

func (e *Engine) evalHash(p *Path, h ir.HashExpr, pkt int) Value {
	args := make([]Value, len(h.Args))
	for i, a := range h.Args {
		args[i] = e.evalExpr(p, a, pkt)
	}
	dom := solver.FullInterval(32)
	if h.Mod > 0 {
		dom = solver.Interval{Lo: 0, Hi: h.Mod - 1}
	}
	hv := e.havoc(pkt, dom)
	if v, ok := singleVar(hv); ok {
		p.Havocs = append(p.Havocs, HavocRecord{Var: v, Seed: h.Seed, Mod: h.Mod, Args: args, Pkt: pkt})
	}
	return hv
}

// ---- condition forking ----

// forkCond splits a set of paths into those where the condition holds and
// those where it does not, adding constraints or greybox weights.
func (e *Engine) forkCond(paths []*Path, c ir.Cond, pkt int) (tr, fl []*Path) {
	switch t := c.(type) {
	case ir.Cmp:
		for _, p := range paths {
			pt, pf := e.forkCmp(p, t, pkt)
			if pt != nil {
				tr = append(tr, pt)
			}
			if pf != nil {
				fl = append(fl, pf)
			}
		}
		return tr, fl
	case ir.Not:
		f2, t2 := e.forkCond(paths, t.C, pkt)
		return t2, f2
	case ir.AndC:
		t1, f1 := e.forkCond(paths, t.A, pkt)
		t2, f2 := e.forkCond(t1, t.B, pkt)
		return t2, append(f1, f2...)
	case ir.OrC:
		t1, f1 := e.forkCond(paths, t.A, pkt)
		t2, f2 := e.forkCond(f1, t.B, pkt)
		return append(t1, t2...), f2
	}
	return paths, nil
}

// forkCmp forks one path on a comparison. Either return may be nil
// (infeasible or probability-zero arm).
func (e *Engine) forkCmp(p *Path, c ir.Cmp, pkt int) (*Path, *Path) {
	a := e.evalExpr(p, c.A, pkt)
	b := e.evalExpr(p, c.B, pkt)

	// Greybox distribution against a concrete threshold: weighted fork.
	if a.Kind == VDist && b.IsConcrete() {
		return e.forkDist(p, a.D, c.Op, b.C)
	}
	if b.Kind == VDist && a.IsConcrete() {
		return e.forkDist(p, b.D, swapOp(c.Op), a.C)
	}
	// Distribution vs symbolic: collapse the distribution to its mean and
	// continue with a regular constraint fork (documented approximation;
	// data-plane programs overwhelmingly compare counters with constants).
	if a.Kind == VDist {
		a = ConcreteVal(distMean(a.D))
	}
	if b.Kind == VDist {
		b = ConcreteVal(distMean(b.D))
	}

	if a.IsConcrete() && b.IsConcrete() {
		if cmpConcrete(c.Op, a.C, b.C) {
			return p, nil
		}
		return nil, p
	}

	la, _ := a.Lin()
	lb, _ := b.Lin()
	con := solver.NewCmp(c.Op, la, lb)

	e.countFork()
	pt := p.Clone()
	pt.PC = append(pt.PC, con)
	pf := p
	pf.PC = append(pf.PC, con.Negate())

	e.Stats.FeasibilityChk += 2
	if !e.timedFeasible(pt) {
		pt = nil
	}
	if !e.timedFeasible(pf) {
		pf = nil
	}
	return pt, pf
}

// forkDist forks on a value-distribution comparison, weighting each arm by
// the distribution mass (greybox branching).
func (e *Engine) forkDist(p *Path, d *greybox.ValueDist, op ir.CmpOp, k uint64) (*Path, *Path) {
	total := d.Total()
	if total <= 0 {
		return nil, p
	}
	mTrue := d.MassWhere(func(v uint64) bool { return cmpConcrete(op, v, k) }) / total
	e.countFork()
	var pt, pf *Path
	if mTrue > 0 {
		pt = p.Clone()
		pt.Grey = pt.Grey.Mul(prob.FromFloat(mTrue))
	}
	if mTrue < 1 {
		pf = p
		pf.Grey = pf.Grey.Mul(prob.FromFloat(1 - mTrue))
	}
	return pt, pf
}

func distMean(d *greybox.ValueDist) uint64 {
	vs, ps := d.Support()
	tot := d.Total()
	if tot <= 0 {
		return 0
	}
	m := 0.0
	for i, v := range vs {
		m += float64(v) * ps[i]
	}
	return uint64(m / tot)
}

func cmpConcrete(op ir.CmpOp, a, b uint64) bool {
	switch op {
	case ir.CmpEq:
		return a == b
	case ir.CmpNe:
		return a != b
	case ir.CmpLt:
		return a < b
	case ir.CmpLe:
		return a <= b
	case ir.CmpGt:
		return a > b
	case ir.CmpGe:
		return a >= b
	}
	return false
}

func swapOp(op ir.CmpOp) ir.CmpOp {
	switch op {
	case ir.CmpLt:
		return ir.CmpGt
	case ir.CmpLe:
		return ir.CmpGe
	case ir.CmpGt:
		return ir.CmpLt
	case ir.CmpGe:
		return ir.CmpLe
	}
	return op
}
