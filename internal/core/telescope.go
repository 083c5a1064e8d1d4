package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/target"
)

// Guard describes one counter-guarded branch (IsGuard in Figure 3):
// a conditional of the form `reg op const` whose Then arm is the guarded
// code block.
type Guard struct {
	Reg    string
	Op     ir.CmpOp
	Thresh uint64
	Node   *ir.Block
}

// FindGuards scans a program's branches for register guards with the
// operators the paper telescopes: ">", ">=", "==".
func FindGuards(p *ir.Program) []Guard {
	var out []Guard
	for _, br := range p.Branches() {
		cmp, ok := br.Cond.(ir.Cmp)
		if !ok || br.Then == nil {
			continue
		}
		reg, rok := cmp.A.(ir.RegRef)
		k, kok := cmp.B.(ir.Const)
		op := cmp.Op
		if !rok || !kok {
			// Try the mirrored form const op reg.
			k2, kok2 := cmp.A.(ir.Const)
			reg2, rok2 := cmp.B.(ir.RegRef)
			if !kok2 || !rok2 {
				continue
			}
			reg, k = reg2, k2
			op = cmp.Op.Swap()
		}
		switch op {
		case ir.CmpGt, ir.CmpGe, ir.CmpEq:
			out = append(out, Guard{Reg: reg.Reg, Op: op, Thresh: k.V, Node: br.Then})
		}
	}
	return out
}

// repetitionsNeeded returns how many unit increments drive a fresh counter
// to satisfy the guard.
func (g Guard) RepetitionsNeeded(incPerPeriod uint64) uint64 {
	if incPerPeriod == 0 {
		incPerPeriod = 1
	}
	need := g.Thresh
	if g.Op == ir.CmpGt {
		need = g.Thresh + 1
	}
	if need == 0 {
		return 0
	}
	return (need + incPerPeriod - 1) / incPerPeriod
}

// telescope runs the Telescope pass of Figure 3: probe the program with a
// short symbolic sequence (γ packets), detect paths whose constraints
// repeat with some period, and generalize each periodic path to the length
// needed to trigger every counter-guarded deep block, estimating
// Pr[N] = Σ_paths q^rept.
func telescope(ctx context.Context, progIn *ir.Program, oracle dist.Oracle, opt Options, tgt *target.Model, pool *par.Pool) map[int]prob.P {
	guards := FindGuards(progIn)
	if len(guards) == 0 {
		return nil
	}
	// Only guards the main loop cannot reach are telescoped.
	var deep []Guard
	for _, g := range guards {
		if g.RepetitionsNeeded(1) > uint64(opt.MaxIters) {
			deep = append(deep, g)
		}
	}
	opt.Tracer.Event("telescope", "guards",
		obs.F("found", float64(len(guards))), obs.F("deep", float64(len(deep))))
	if len(deep) == 0 {
		return nil
	}

	// The probe runs unmerged (periodicity analysis needs intact path
	// conditions), so branchy programs can explode; bound it and fall back
	// to the longest completed probe length (>= 3 packets) when it does.
	// The budget is a child of ctx: its expiry only ends the probe, while
	// ctx itself still reports external cancellation to the caller.
	probeBudget := opt.Timeout / 2
	if probeBudget > 5*time.Second {
		probeBudget = 5 * time.Second
	}
	probeCtx, cancelProbe := context.WithTimeout(ctx, probeBudget)
	defer cancelProbe()
	maxProbePaths := opt.MaxPaths
	if maxProbePaths > 1<<16 {
		maxProbePaths = 1 << 16
	}
	engine := sym.NewEngine(progIn, sym.Options{
		Greybox:  true,
		MaxPaths: maxProbePaths,
		Locality: opt.Locality,
		Ctx:      probeCtx,
		Pool:     pool,
		Target:   tgt,
	})
	counter := mc.NewCounter(engine.Space, oracle)
	counter.Seed = opt.Seed

	paths := engine.Initial()
	gamma := 0
	for step := 0; step < opt.Gamma; step++ {
		nps, err := engine.Step(paths, step)
		if err != nil {
			break
		}
		paths = nps
		gamma = step + 1
	}
	if gamma < 3 {
		return nil
	}
	opt.Gamma = gamma

	// Periodicity detection and the per-pattern model count fan out across
	// the pool; the dedup and the estimate accumulation stay sequential in
	// path order (prob.P addition is not associative). Duplicate patterns
	// cost one extra cache hit each instead of being skipped up front —
	// the single-flight memo makes that near-free.
	type probeResult struct {
		ok  bool
		d   int
		sig string
		q   prob.P
	}
	results := make([]probeResult, len(paths))
	if err := pool.Run(ctx, len(paths), func(i int) error {
		path := paths[i]
		d, ok := periodOf(path, opt.Gamma)
		if !ok {
			return nil
		}
		cons := blockConstraints(path, 1, d)
		q := counter.ProbOf(cons)
		// Greybox weight amortized per period.
		q = q.Mul(path.Grey.Pow(float64(d) / float64(opt.Gamma)))
		results[i] = probeResult{ok: true, d: d,
			sig: fmt.Sprintf("%d|%s", d, canonicalBlock(cons)), q: q}
		return nil
	}); err != nil {
		return nil
	}

	est := map[int]prob.P{}
	seenPattern := map[string]bool{}
	for i, path := range paths {
		r := results[i]
		if !r.ok {
			continue
		}
		// Paths differing only in their warm-up prefix stretch to the same
		// infinite behaviour; count each stationary pattern once.
		if seenPattern[r.sig] {
			continue
		}
		seenPattern[r.sig] = true
		numBlocks := opt.Gamma / r.d
		q := r.q
		if q.IsZero() {
			continue
		}
		for _, g := range deep {
			inc := regDeltaPerBlock(progIn, path, g.Reg, numBlocks)
			if inc == 0 {
				continue
			}
			rept := g.RepetitionsNeeded(inc)
			contribution := q.Pow(float64(rept))
			for _, blk := range ir.Blocks(g.Node) {
				if cur, ok := est[blk.ID]; ok {
					est[blk.ID] = cur.Add(contribution)
				} else {
					est[blk.ID] = contribution
				}
			}
		}
	}
	return est
}

// regDeltaPerBlock computes the per-period increment of a register along a
// probe path (0 when the register did not increase or is symbolic).
func regDeltaPerBlock(p *ir.Program, path *sym.Path, reg string, numBlocks int) uint64 {
	decl, ok := p.Reg(reg)
	if !ok {
		return 0
	}
	v, ok2 := path.Reg(reg)
	if !ok2 || !v.IsConcrete() || v.C <= decl.Init {
		return 0
	}
	delta := v.C - decl.Init
	// The register must increment in (almost) every block for the path to
	// drive the guard: warm-up effects may shave at most one block's worth
	// (e.g. the first packet cannot be a retransmission), but a register
	// touched only in the warm-up block is not periodic progress.
	if delta+1 < uint64(numBlocks) {
		return 0
	}
	return (delta + uint64(numBlocks) - 1) / uint64(numBlocks)
}

// periodOf detects the shortest period d (dividing γ) such that the path's
// constraints repeat from one d-packet block to the next (BinarySearch +
// "pc repeats pref" in Figure 3). Block 0 is excluded from the comparison —
// it contains warm-up constraints — so at least two stationary blocks are
// required to certify a period.
func periodOf(path *sym.Path, gamma int) (int, bool) {
	for d := 1; d <= gamma/3; d++ {
		if gamma%d != 0 {
			continue
		}
		if blocksRepeat(path, gamma, d) {
			return d, true
		}
	}
	return 0, false
}

func blocksRepeat(path *sym.Path, gamma, d int) bool {
	numBlocks := gamma / d
	if numBlocks < 3 {
		return false
	}
	ref := canonicalBlock(blockConstraints(path, 1, d))
	for k := 2; k < numBlocks; k++ {
		if canonicalBlock(blockConstraints(path, k, d)) != ref {
			return false
		}
	}
	return true
}

// blockConstraints extracts the constraints whose latest packet reference
// falls in block k (packets [k·d, (k+1)·d)), rebased so that the block
// starts at packet 0. References to earlier packets become negative
// indices, which preserves cross-block stitching patterns such as
// "pkt_i.seq == pkt_{i-1}.seq".
func blockConstraints(path *sym.Path, k, d int) []solver.Constraint {
	lo, hi := k*d, (k+1)*d-1
	var out []solver.Constraint
	for _, c := range path.PC {
		maxPkt := -1 << 30
		for _, v := range c.E.Vars() {
			if v.Pkt > maxPkt {
				maxPkt = v.Pkt
			}
		}
		if maxPkt < lo || maxPkt > hi {
			continue
		}
		out = append(out, rebase(c, -k*d))
	}
	return out
}

func rebase(c solver.Constraint, shift int) solver.Constraint {
	e := solver.LinExpr{K: c.E.K}
	for _, t := range c.E.Terms {
		e.Terms = append(e.Terms, solver.Term{
			Var:  solver.Var{Pkt: t.Var.Pkt + shift, Field: t.Var.Field},
			Coef: t.Coef,
		})
	}
	return solver.Constraint{E: e, Op: c.Op}
}

// canonicalBlock renders a block's constraint set order-independently, with
// havoc variables renamed by order of appearance so that distinct havoc
// instances across blocks compare equal.
func canonicalBlock(cs []solver.Constraint) string {
	rename := map[string]string{}
	var ss []string
	for _, c := range cs {
		ss = append(ss, canonicalConstraint(c, rename))
	}
	sort.Strings(ss)
	return strings.Join(ss, "&")
}

func canonicalConstraint(c solver.Constraint, rename map[string]string) string {
	var b strings.Builder
	for _, t := range c.E.Terms {
		f := t.Var.Field
		if strings.HasPrefix(f, "__") {
			if alias, ok := rename[f]; ok {
				f = alias
			} else {
				alias := fmt.Sprintf("__x%d", len(rename))
				rename[f] = alias
				f = alias
			}
		}
		fmt.Fprintf(&b, "%+d*p%d.%s", t.Coef, t.Var.Pkt, f)
	}
	fmt.Fprintf(&b, "%+d%s0", c.E.K, c.Op)
	return b.String()
}
