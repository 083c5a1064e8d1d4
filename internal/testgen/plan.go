package testgen

import (
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sym"
	"repro/internal/target"
)

// directedPlan runs directed symbolic execution: a beam search over the
// symbolic packet sequence, preferring paths whose current packet visited
// blocks close (in CFG edges) to the target (paper §3.5's directed symbex).
func directedPlan(prog *ir.Program, node int, model *target.Model, opt Options) (*pathPlan, error) {
	engine := sym.NewEngine(prog, sym.Options{
		Greybox:  true,
		MaxPaths: opt.Beam * 64,
		Ctx:      opt.Ctx,
		Target:   model,
	})
	cfg := ir.BuildCFG(prog)
	distTo := cfg.DistanceTo(node)

	paths := engine.Initial()
	for step := 0; step < opt.MaxSeqLen; step++ {
		nps, err := engine.Step(paths, step)
		if err != nil {
			// The engine folds cancellation into its budget error; report
			// the caller's cancellation as such, not as "no path found".
			if cerr := opt.ctx().Err(); cerr != nil {
				return nil, cerr
			}
			return nil, ErrNotFound
		}
		for _, p := range nps {
			if p.Visited(node) {
				return &pathPlan{Length: step + 1, Path: p, Engine: engine}, nil
			}
		}
		// Score each path once; the stable sort keeps ties in step order.
		score := make(map[*sym.Path]int, len(nps))
		for _, p := range nps {
			score[p] = planScore(engine.Prog, p, distTo)
		}
		sort.SliceStable(nps, func(i, j int) bool { return score[nps[i]] < score[nps[j]] })
		if len(nps) > opt.Beam {
			nps = nps[:opt.Beam]
		}
		paths = nps
	}
	return nil, ErrNotFound
}

// planScore ranks a path by how close its latest packet got to the target;
// register progress breaks ties (higher counters sort first).
func planScore(prog *ir.Program, p *sym.Path, distTo []int) int {
	best := 1 << 29
	for id, d := range distTo {
		if d < best && p.Visited(id) {
			best = d
		}
	}
	progress := 0
	for _, r := range prog.Regs {
		if v, _ := p.Reg(r.Name); v.IsConcrete() && v.C < 1<<16 {
			progress += int(v.C)
		}
	}
	return best*4096 - progress
}

// stretchPlan handles counter-guarded deep targets: it greedily extends the
// single path that advances the guard register fastest until the guard
// fires (the generation-side counterpart of telescoping — one period's
// pattern is repeated threshold-many times).
func stretchPlan(prog *ir.Program, g core.Guard, node int, model *target.Model, opt Options) (*pathPlan, error) {
	// Thresholds beyond the stretch cap (e.g. "every millionth packet")
	// would need impractically long traces; report not-found instead of
	// unrolling millions of symbolic packets.
	const stretchCap = 4096
	rept := g.RepetitionsNeeded(1)
	if rept > stretchCap/2 {
		return nil, ErrNotFound
	}
	engine := sym.NewEngine(prog, sym.Options{
		Greybox:  true,
		MaxPaths: 1 << 16,
		Ctx:      opt.Ctx,
		Target:   model,
	})
	maxSteps := int(rept)*2 + opt.Slack + 8
	paths := engine.Initial()
	for step := 0; step < maxSteps; step++ {
		nps, err := engine.Step(paths, step)
		if err != nil {
			if cerr := opt.ctx().Err(); cerr != nil {
				return nil, cerr
			}
			return nil, ErrNotFound
		}
		for _, p := range nps {
			if p.Visited(node) {
				return &pathPlan{Length: step + 1, Path: p, Engine: engine}, nil
			}
		}
		best := nps[0]
		bestKey := stretchScore(best, g)
		for _, p := range nps[1:] {
			if k := stretchScore(p, g); k > bestKey {
				best, bestKey = p, k
			}
		}
		paths = []*sym.Path{best}
	}
	return nil, ErrNotFound
}

// stretchScore prefers paths with a higher guard register, then higher
// greybox likelihood (so hits beat collisions when both advance equally).
func stretchScore(p *sym.Path, g core.Guard) float64 {
	regV := 0.0
	if v, ok := p.Reg(g.Reg); ok && v.IsConcrete() {
		regV = float64(v.C)
	}
	return regV*1e6 + p.Grey.Log10()
}
