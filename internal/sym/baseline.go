package sym

import (
	"repro/internal/ir"
	"repro/internal/solver"
)

// Baseline (KLEE-like) handling of approximate data structures: the
// underlying arrays are materialized per path and cloned on every fork, and
// accesses with symbolic indices fork per previously-written slot (the
// index-concretization strategy general-purpose engines fall back to when
// theory-of-arrays constraints become intractable). Cost therefore grows
// with both the structure size and the access count — the scaling walls of
// paper Figures 6b–6d.

// BaseWrite records one baseline hash-table write for slot aliasing forks.
type BaseWrite struct {
	IdxVar solver.Var
	Keys   []solver.LinExpr
	Pkt    int
}

// materialize allocates a structure's backing array on the path.
func (e *Engine) materialize(p *Path, key string, size int) {
	if _, ok := p.Arrays[key]; ok {
		return
	}
	arr := make([]Value, size)
	for i := range arr {
		arr[i] = ConcreteVal(0)
	}
	if p.Arrays == nil {
		p.Arrays = map[string][]Value{}
	}
	p.Arrays[key] = arr
	e.Stats.ArrayBytes += size * 16
}

func (e *Engine) execHashBaseline(p *Path, h *ir.HashAccess, pkt int) ([]*Path, error) {
	decl, _ := e.Prog.HashTable(h.Store)
	size := decl.Size
	arrKey := "__ht_" + h.Store
	e.materialize(p, arrKey, size)

	// The CRC index is a fresh symbolic variable over the slot range.
	idxVal := e.havoc(pkt, solver.Interval{Lo: 0, Hi: uint64(size - 1)})
	idxVar, _ := singleVar(idxVal)

	keyLins := make([]solver.LinExpr, 0, len(h.Key))
	for _, k := range h.Key {
		v := e.evalExpr(p, k, pkt)
		if l, ok := v.Lin(); ok {
			keyLins = append(keyLins, l)
		}
	}

	writes := p.BWrites[h.Store]
	var out []*Path

	// One fork per prior write: the new access aliases that slot.
	for _, w := range writes {
		q := p.Clone()
		e.countFork()
		e.Stats.ArrayBytes += size * 16 // cloned array state
		q.PC = append(q.PC, solver.NewCmp(ir.CmpEq, solver.VarExpr(idxVar), solver.VarExpr(w.IdxVar)))
		if !e.feasible(q) {
			continue
		}
		// Same slot: same key (hit) or different key (collision).
		hitQ := q.Clone()
		e.countFork()
		e.Stats.ArrayBytes += size * 16
		for i := range keyLins {
			if i < len(w.Keys) {
				hitQ.PC = append(hitQ.PC, solver.NewCmp(ir.CmpEq, keyLins[i], w.Keys[i]))
			}
		}
		colQ := q
		if len(keyLins) > 0 && len(w.Keys) > 0 {
			colQ.PC = append(colQ.PC, solver.NewCmp(ir.CmpNe, keyLins[0], w.Keys[0]))
		}
		if e.feasible(hitQ) {
			e.baselineWriteBack(hitQ, h, idxVar, keyLins, pkt)
			nps, err := e.exec(hitQ, h.OnHit, pkt)
			if err != nil {
				return nil, err
			}
			out = append(out, nps...)
		}
		if e.feasible(colQ) {
			e.baselineWriteBack(colQ, h, idxVar, keyLins, pkt)
			nps, err := e.exec(colQ, h.OnCollide, pkt)
			if err != nil {
				return nil, err
			}
			out = append(out, nps...)
		}
		if err := e.checkBudget(len(out)); err != nil {
			return nil, err
		}
	}

	// Fresh-slot fork: the index differs from every prior write.
	fresh := p
	for _, w := range writes {
		fresh.PC = append(fresh.PC, solver.NewCmp(ir.CmpNe, solver.VarExpr(idxVar), solver.VarExpr(w.IdxVar)))
	}
	if e.feasible(fresh) {
		e.baselineWriteBack(fresh, h, idxVar, keyLins, pkt)
		nps, err := e.exec(fresh, h.OnEmpty, pkt)
		if err != nil {
			return nil, err
		}
		out = append(out, nps...)
	}
	return out, nil
}

func (e *Engine) baselineWriteBack(q *Path, h *ir.HashAccess, idxVar solver.Var, keys []solver.LinExpr, pkt int) {
	if h.Dest != "" {
		e.setDest(q, h.Dest, e.havoc(pkt, solver.FullInterval(32)))
	}
	if !h.Write {
		return
	}
	if q.BWrites == nil {
		q.BWrites = map[string][]BaseWrite{}
	}
	q.BWrites[h.Store] = append(q.BWrites[h.Store], BaseWrite{IdxVar: idxVar, Keys: keys, Pkt: pkt})
}

func (e *Engine) feasible(p *Path) bool {
	if p == nil {
		return false
	}
	e.Stats.FeasibilityChk++
	return e.timedFeasible(p)
}

func (e *Engine) execBloomBaseline(p *Path, b *ir.BloomOp, pkt int) ([]*Path, error) {
	decl, _ := e.Prog.Bloom(b.Filter)
	bits := decl.Bits
	arrKey := "__bf_" + b.Filter
	e.materialize(p, arrKey, bits)

	// Each of the k probed bits is an unconstrained symbolic read; the
	// membership outcome forks qualitatively (the baseline cannot weight).
	hitQ := p.Clone()
	e.countFork()
	e.Stats.ArrayBytes += bits * 16
	missQ := p
	var out []*Path
	nps, err := e.exec(hitQ, b.OnHit, pkt)
	if err != nil {
		return nil, err
	}
	out = append(out, nps...)
	nps, err = e.exec(missQ, b.OnMiss, pkt)
	if err != nil {
		return nil, err
	}
	return append(out, nps...), nil
}

func (e *Engine) execSketchUpdateBaseline(p *Path, s *ir.SketchUpdate, pkt int) ([]*Path, error) {
	decl, _ := e.Prog.Sketch(s.Sketch)
	cols := decl.Cols
	e.materialize(p, "__cms_"+s.Sketch, decl.Rows*cols)
	// Each row's counter read/update goes through a symbolic index; the
	// estimate is a fresh unknown. Fork per row over aliasing with prior
	// updates (approximated as one fork per prior update, as for tables).
	if s.Dest != "" {
		e.setDest(p, s.Dest, e.havoc(pkt, solver.FullInterval(32)))
	}
	writes := p.BWrites["__cms_"+s.Sketch]
	var out []*Path
	idxVal := e.havoc(pkt, solver.Interval{Lo: 0, Hi: uint64(cols - 1)})
	idxVar, _ := singleVar(idxVal)
	for _, w := range writes {
		q := p.Clone()
		e.countFork()
		e.Stats.ArrayBytes += decl.Rows * cols * 16
		q.PC = append(q.PC, solver.NewCmp(ir.CmpEq, solver.VarExpr(idxVar), solver.VarExpr(w.IdxVar)))
		if e.feasible(q) {
			out = append(out, q)
		}
	}
	for _, w := range writes {
		p.PC = append(p.PC, solver.NewCmp(ir.CmpNe, solver.VarExpr(idxVar), solver.VarExpr(w.IdxVar)))
	}
	if e.feasible(p) {
		if p.BWrites == nil {
			p.BWrites = map[string][]BaseWrite{}
		}
		p.BWrites["__cms_"+s.Sketch] = append(p.BWrites["__cms_"+s.Sketch], BaseWrite{IdxVar: idxVar, Pkt: pkt})
		out = append(out, p)
	}
	return out, nil
}

func (e *Engine) execSketchBranchBaseline(p *Path, s *ir.SketchBranch, pkt int) ([]*Path, error) {
	decl, _ := e.Prog.Sketch(s.Sketch)
	cols := decl.Cols
	e.materialize(p, "__cms_"+s.Sketch, decl.Rows*cols)
	est := e.havoc(pkt, solver.FullInterval(32))
	el, _ := est.Lin()
	con := solver.NewCmp(s.Op, el, solver.ConstExpr(int64(s.Threshold)))

	tq := p.Clone()
	e.countFork()
	e.Stats.ArrayBytes += decl.Rows * cols * 16
	tq.PC = append(tq.PC, con)
	fq := p
	fq.PC = append(fq.PC, con.Negate())

	var out []*Path
	if e.feasible(tq) {
		nps, err := e.exec(tq, s.OnTrue, pkt)
		if err != nil {
			return nil, err
		}
		out = append(out, nps...)
	}
	if e.feasible(fq) {
		nps, err := e.exec(fq, s.OnFalse, pkt)
		if err != nil {
			return nil, err
		}
		out = append(out, nps...)
	}
	return out, nil
}
