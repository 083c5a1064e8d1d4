package sym

import (
	"fmt"

	"repro/internal/greybox"
	"repro/internal/ir"
	"repro/internal/prob"
	"repro/internal/solver"
)

// exec runs one statement on one path, returning the resulting paths.
// The input path is consumed (it may be returned or mutated).
func (e *Engine) exec(p *Path, s ir.Stmt, pkt int) ([]*Path, error) {
	if s == nil || p.halted {
		return []*Path{p}, nil
	}
	switch t := s.(type) {
	case *ir.Block:
		return e.execBlock(p, t, pkt)
	case *ir.If:
		return e.execIf(p, t, pkt)
	case *ir.Assign:
		v := e.evalExpr(p, t.Expr, pkt)
		switch lv := t.Target.(type) {
		case ir.RegLV:
			p.regs[p.lay.MustRegSlot(lv.Reg)] = v
		case ir.MetaLV:
			p.meta[p.lay.MustMetaSlot(lv.Name)] = v
		}
		return []*Path{p}, nil
	case *ir.Action:
		return e.execAction(p, t, pkt)
	}
	// Every other statement is a stateful operation and takes one stage.
	// Over the target's budget it does not execute: the path records the
	// target's overflow action and the rest of the pass halts.
	if kind, ok := e.Opts.Target.ChargeStage(&p.Stages); !ok {
		p.Actions = append(p.Actions, ActionRecord{Kind: kind, Port: PortUnknown, Pkt: pkt})
		p.halted = true
		return []*Path{p}, nil
	}
	switch t := s.(type) {
	case *ir.HashAccess:
		if e.Opts.Greybox {
			return e.execHashGrey(p, t, pkt)
		}
		return e.execHashBaseline(p, t, pkt)
	case *ir.BloomOp:
		if e.Opts.Greybox {
			return e.execBloomGrey(p, t, pkt)
		}
		return e.execBloomBaseline(p, t, pkt)
	case *ir.SketchUpdate:
		if e.Opts.Greybox {
			return e.execSketchUpdateGrey(p, t, pkt)
		}
		return e.execSketchUpdateBaseline(p, t, pkt)
	case *ir.SketchBranch:
		if e.Opts.Greybox {
			return e.execSketchBranchGrey(p, t, pkt)
		}
		return e.execSketchBranchBaseline(p, t, pkt)
	case *ir.ArrayRead:
		e.execArrayRead(p, t, pkt)
	case *ir.ArrayWrite:
		e.execArrayWrite(p, t, pkt)
	case *ir.TableApply:
		return e.execTable(p, t, pkt)
	}
	return []*Path{p}, nil
}

func (e *Engine) execBlock(p *Path, b *ir.Block, pkt int) ([]*Path, error) {
	if e.Opts.Dead[b.ID] {
		// Statically-dead block: the analysis proved no packet sequence can
		// reach it, so this path carries zero probability mass. Discard it
		// instead of forking further.
		e.Stats.PrunedPaths++
		return nil, nil
	}
	p.visit(b.ID)
	e.Hot.Visit(b.ID)
	prevBlk := e.curBlk
	e.curBlk = b.ID
	defer func() { e.curBlk = prevBlk }()
	cur := []*Path{p}
	for _, st := range b.Stmts {
		var next []*Path
		for _, q := range cur {
			if q.halted {
				next = append(next, q)
			} else {
				nps, err := e.exec(q, st, pkt)
				if err != nil {
					return nil, err
				}
				next = append(next, nps...)
			}
			// next only grows and the live count never falls, so a trip here
			// is one the check after the statement would make anyway; taking
			// it now skips forking the rest of cur.
			if !e.tripAfterStmt {
				if err := e.checkBudget(len(next)); err != nil {
					return nil, err
				}
			}
		}
		cur = next
		if err := e.checkBudget(len(cur)); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (e *Engine) execIf(p *Path, f *ir.If, pkt int) ([]*Path, error) {
	// Static pruning: when an arm is a statically-dead block, the
	// condition's outcome is already implied by constraints on every path
	// that reaches it, so the path is routed to the live arm without the
	// fork, the clone, or the two feasibility checks.
	if e.Opts.Dead != nil {
		if b, ok := f.Then.(*ir.Block); ok && e.Opts.Dead[b.ID] {
			e.Stats.PrunedPaths++
			if f.Else == nil {
				return []*Path{p}, nil
			}
			return e.exec(p, f.Else, pkt)
		}
		if b, ok := f.Else.(*ir.Block); ok && e.Opts.Dead[b.ID] {
			e.Stats.PrunedPaths++
			return e.exec(p, f.Then, pkt)
		}
	}
	tr, fl := e.forkCond([]*Path{p}, f.Cond, pkt)
	var out []*Path
	for _, q := range tr {
		nps, err := e.exec(q, f.Then, pkt)
		if err != nil {
			return nil, err
		}
		out = append(out, nps...)
	}
	for _, q := range fl {
		if f.Else == nil {
			out = append(out, q)
			continue
		}
		nps, err := e.exec(q, f.Else, pkt)
		if err != nil {
			return nil, err
		}
		out = append(out, nps...)
	}
	return out, nil
}

func (e *Engine) execAction(p *Path, a *ir.Action, pkt int) ([]*Path, error) {
	rec := ActionRecord{Kind: e.Opts.Target.Action(a.Kind), Port: PortUnknown, Pkt: pkt}
	if a.Arg != nil {
		if v := e.evalExpr(p, a.Arg, pkt); v.IsConcrete() {
			rec.Port = v.C
		}
	}
	p.Actions = append(p.Actions, rec)
	if a.Kind == ir.ActDrop && e.Opts.DropOptimization {
		p.halted = true
	}
	return []*Path{p}, nil
}

// ---- greybox data structures ----

func (e *Engine) hashStore(p *Path, name string) *greybox.HashStore {
	if st, ok := p.HashStores[name]; ok {
		return st
	}
	decl, _ := e.Prog.HashTable(name)
	st := greybox.NewHashStore(decl.Size)
	if e.Opts.Locality > 0 {
		st.Locality = e.Opts.Locality
	}
	if p.HashStores == nil {
		p.HashStores = map[string]*greybox.HashStore{}
	}
	p.HashStores[name] = st
	return st
}

// writeValue extracts the concrete value an access writes (symbolic values
// are abstracted to 0 inside greybox stores — only their statistics matter).
func (e *Engine) writeValue(p *Path, x ir.Expr, pkt int) uint64 {
	if x == nil {
		return 0
	}
	if v := e.evalExpr(p, x, pkt); v.IsConcrete() {
		return v.C
	}
	return 0
}

func (e *Engine) execHashGrey(p *Path, h *ir.HashAccess, pkt int) ([]*Path, error) {
	st := e.hashStore(p, h.Store)
	pe, ph, pc := st.AccessProbs()
	if e.Opts.Target.Exact() {
		// Map-backed state: keyed lookups are exact, so the collision arm
		// vanishes and its mass lands on the empty arm (an unseen key finds
		// no entry rather than someone else's slot).
		pe, pc = pe+pc, 0
	}
	wv := e.writeValue(p, h.Value, pkt)
	arms := []grArm{
		{pe, ArmEmpty, h.Store, func(q *Path) {
			s := q.HashStores[h.Store]
			if h.Write {
				s.ApplyEmptyWrite(wv)
				e.setDest(q, h.Dest, DistVal(greybox.PointDist(wv)))
			} else {
				e.setDest(q, h.Dest, ConcreteVal(0))
			}
		}, h.OnEmpty},
		{ph, ArmHit, h.Store, func(q *Path) {
			s := q.HashStores[h.Store]
			switch {
			case h.Write && h.Inc:
				nd := s.ApplyHitInc(int64(wv))
				e.setDest(q, h.Dest, DistVal(nd))
			case h.Write:
				s.ApplyHitWrite(wv)
				e.setDest(q, h.Dest, DistVal(greybox.PointDist(wv)))
			default:
				d := s.Vals.Clone()
				d.Normalize()
				e.setDest(q, h.Dest, DistVal(d))
			}
		}, h.OnHit},
		{pc, ArmCollide, h.Store, func(q *Path) {
			s := q.HashStores[h.Store]
			if h.Write && h.Evict {
				s.ApplyCollideEvict(wv)
				e.setDest(q, h.Dest, DistVal(greybox.PointDist(wv)))
			} else {
				d := s.Vals.Clone()
				d.Normalize()
				e.setDest(q, h.Dest, DistVal(d))
			}
		}, h.OnCollide},
	}
	return e.runArms(p, arms, pkt)
}

type grArm = struct {
	pr    float64
	arm   GreyArm
	store string
	apply func(q *Path)
	code  ir.Stmt
}

// runArms forks a path into weighted greybox arms, skipping zero-probability
// ones, and executes each arm's continuation. Each taken arm is logged on
// the path for the test generator.
func (e *Engine) runArms(p *Path, arms []grArm, pkt int) ([]*Path, error) {
	live := 0
	for _, a := range arms {
		if a.pr > 0 {
			live++
		}
	}
	var out []*Path
	used := 0
	for _, a := range arms {
		if a.pr <= 0 {
			continue
		}
		if err := e.tickBudget(len(out)); err != nil {
			return nil, err
		}
		used++
		e.Stats.GreyArms++
		q := p
		if used < live {
			q = p.Clone()
			e.countFork()
		}
		q.Grey = q.Grey.Mul(prob.FromFloat(a.pr))
		q.GreyChoices = append(q.GreyChoices, GreyChoice{Store: a.store, Arm: a.arm, Pkt: pkt})
		if a.apply != nil {
			a.apply(q)
		}
		nps, err := e.exec(q, a.code, pkt)
		if err != nil {
			return nil, err
		}
		out = append(out, nps...)
	}
	return out, nil
}

func (e *Engine) setDest(p *Path, dest string, v Value) {
	if dest != "" {
		p.meta[p.lay.MustMetaSlot(dest)] = v
	}
}

func (e *Engine) bloom(p *Path, name string) *greybox.BloomStore {
	if st, ok := p.Blooms[name]; ok {
		return st
	}
	decl, _ := e.Prog.Bloom(name)
	st := greybox.NewBloomStore(decl.Bits, decl.Hashes)
	if e.Opts.Locality > 0 {
		st.Locality = e.Opts.Locality
	}
	if p.Blooms == nil {
		p.Blooms = map[string]*greybox.BloomStore{}
	}
	p.Blooms[name] = st
	return st
}

func (e *Engine) execBloomGrey(p *Path, b *ir.BloomOp, pkt int) ([]*Path, error) {
	st := e.bloom(p, b.Filter)
	hp := st.HitProb()
	arms := []grArm{
		{hp, ArmBloomHit, b.Filter, func(q *Path) {
			if b.Insert {
				q.Blooms[b.Filter].Insert()
			}
		}, b.OnHit},
		{1 - hp, ArmBloomMiss, b.Filter, func(q *Path) {
			if b.Insert {
				q.Blooms[b.Filter].Insert()
			}
		}, b.OnMiss},
	}
	return e.runArms(p, arms, pkt)
}

func (e *Engine) sketch(p *Path, name string) *greybox.SketchStore {
	if st, ok := p.Sketches[name]; ok {
		return st
	}
	decl, _ := e.Prog.Sketch(name)
	st := greybox.NewSketchStore(decl.Rows, decl.Cols)
	if e.Opts.Locality > 0 {
		st.Locality = e.Opts.Locality
	}
	if p.Sketches == nil {
		p.Sketches = map[string]*greybox.SketchStore{}
	}
	p.Sketches[name] = st
	return st
}

func (e *Engine) execSketchUpdateGrey(p *Path, s *ir.SketchUpdate, pkt int) ([]*Path, error) {
	// Fork-free statement: the stride check is the only budget touchpoint a
	// long run of sketch updates ever hits (see Options.Ctx).
	if err := e.tickBudget(0); err != nil {
		return nil, err
	}
	st := e.sketch(p, s.Sketch)
	inc := int64(1)
	if s.Inc != nil {
		inc = int64(e.writeValue(p, s.Inc, pkt))
	}
	est := st.Update(inc)
	e.setDest(p, s.Dest, DistVal(est))
	return []*Path{p}, nil
}

func (e *Engine) execSketchBranchGrey(p *Path, s *ir.SketchBranch, pkt int) ([]*Path, error) {
	st := e.sketch(p, s.Sketch)
	est := st.EstimateDist()
	total := est.Total()
	mTrue := 0.0
	if total > 0 {
		mTrue = est.MassWhere(func(v uint64) bool { return s.Op.Eval(v, s.Threshold) }) / total
	}
	arms := []grArm{
		{mTrue, ArmSketchTrue, s.Sketch, nil, s.OnTrue},
		{1 - mTrue, ArmSketchFalse, s.Sketch, nil, s.OnFalse},
	}
	return e.runArms(p, arms, pkt)
}

// ---- plain register arrays ----

func (e *Engine) array(p *Path, name string) []Value {
	if arr, ok := p.Arrays[name]; ok {
		return arr
	}
	decl, _ := e.Prog.RegArray(name)
	e.materialize(p, name, decl.Size)
	return p.Arrays[name]
}

func (e *Engine) execArrayRead(p *Path, r *ir.ArrayRead, pkt int) {
	arr := e.array(p, r.Array)
	idx := e.evalExpr(p, r.Index, pkt)
	dest := p.lay.MustMetaSlot(r.Dest)
	if idx.IsConcrete() {
		// A concrete out-of-bounds read leaves the destination unchanged,
		// as on the device (dut).
		if idx.C < uint64(len(arr)) {
			p.meta[dest] = arr[idx.C]
		}
		return
	}
	// Symbolic index: the read value is unconstrained.
	p.meta[dest] = e.havoc(pkt, solver.FullInterval(32))
}

func (e *Engine) execArrayWrite(p *Path, w *ir.ArrayWrite, pkt int) {
	arr := e.array(p, w.Array)
	idx := e.evalExpr(p, w.Index, pkt)
	v := e.evalExpr(p, w.Value, pkt)
	if idx.IsConcrete() && idx.C < uint64(len(arr)) {
		arr[idx.C] = v
	}
	// Symbolic-index writes are dropped (documented engine limitation; the
	// program zoo indexes register arrays with concrete round-robin state).
}

// ---- match/action tables ----

func (e *Engine) execTable(p *Path, t *ir.TableApply, pkt int) ([]*Path, error) {
	tbl, ok := e.Prog.Table(t.Table)
	if !ok {
		return []*Path{p}, nil
	}
	keys := make([]Value, len(tbl.Keys))
	for i, k := range tbl.Keys {
		keys[i] = e.evalExpr(p, k, pkt)
	}

	matchCons := func(entry ir.Entry) ([]solver.Constraint, bool) {
		var cons []solver.Constraint
		for i, spec := range entry.Match {
			kl, ok := keys[i].Lin()
			if !ok {
				return nil, false
			}
			switch spec.Kind {
			case ir.MatchExact:
				cons = append(cons, solver.NewCmp(ir.CmpEq, kl, solver.ConstExpr(int64(spec.Lo))))
			case ir.MatchRange:
				cons = append(cons,
					solver.NewCmp(ir.CmpGe, kl, solver.ConstExpr(int64(spec.Lo))),
					solver.NewCmp(ir.CmpLe, kl, solver.ConstExpr(int64(spec.Hi))))
			case ir.MatchWildcard:
			}
		}
		return cons, true
	}

	// missWays decomposes "entry does not match" into disjoint constraint
	// alternatives: ¬(c1∧c2∧…) = ¬c1 ∨ (c1∧¬c2) ∨ (c1∧c2∧¬c3) …, where a
	// negated range itself splits into the below-range and above-range
	// sides. The disjointness keeps model counting exact.
	missWays := func(entry ir.Entry) [][]solver.Constraint {
		ways := [][]solver.Constraint{}
		var held []solver.Constraint
		for i, spec := range entry.Match {
			kl, ok := keys[i].Lin()
			if !ok {
				continue
			}
			switch spec.Kind {
			case ir.MatchExact:
				way := append(append([]solver.Constraint{}, held...),
					solver.NewCmp(ir.CmpNe, kl, solver.ConstExpr(int64(spec.Lo))))
				ways = append(ways, way)
				held = append(held, solver.NewCmp(ir.CmpEq, kl, solver.ConstExpr(int64(spec.Lo))))
			case ir.MatchRange:
				below := append(append([]solver.Constraint{}, held...),
					solver.NewCmp(ir.CmpLt, kl, solver.ConstExpr(int64(spec.Lo))))
				above := append(append([]solver.Constraint{}, held...),
					solver.NewCmp(ir.CmpGt, kl, solver.ConstExpr(int64(spec.Hi))))
				ways = append(ways, below, above)
				held = append(held,
					solver.NewCmp(ir.CmpGe, kl, solver.ConstExpr(int64(spec.Lo))),
					solver.NewCmp(ir.CmpLe, kl, solver.ConstExpr(int64(spec.Hi))))
			case ir.MatchWildcard:
				// Always matches: contributes no miss way.
			}
		}
		return ways
	}

	const missPathCap = 256

	keyLins := make([]solver.LinExpr, 0, len(keys))
	keyLinOK := true
	for _, k := range keys {
		if l, ok := k.Lin(); ok {
			keyLins = append(keyLins, l)
		} else {
			keyLinOK = false
		}
	}

	var out []*Path
	for i := range tbl.Entries {
		cons, ok := matchCons(tbl.Entries[i])
		if !ok {
			continue
		}
		q := p.Clone()
		e.countFork()
		q.PC = append(q.PC, cons...)
		// Entries are declared disjoint across the zoo; overlapping tables
		// would need prior-entry miss chaining here as well.
		e.Stats.FeasibilityChk++
		if !e.timedFeasible(q) {
			q = nil
		}
		if q != nil {
			nps, err := e.exec(q, tbl.Entries[i].Action, pkt)
			if err != nil {
				return nil, err
			}
			out = append(out, nps...)
		}
	}

	// Symbolic (unknown installed) entries: each matches an unconstrained
	// persistent key value — the §6 symbolic-entry extension. The entry
	// variables are shared across packets, so repeated lookups of the same
	// flow correlate.
	var symEntryNeg []solver.Constraint
	if tbl.SymbolicEntries > 0 && keyLinOK && tbl.SymbolicAction != nil {
		entryVars := e.tableEntryVars(tbl, len(keyLins))
		for i := 0; i < tbl.SymbolicEntries; i++ {
			q := p.Clone()
			e.countFork()
			for j, kl := range keyLins {
				q.PC = append(q.PC, solver.NewCmp(ir.CmpEq, kl, solver.VarExpr(entryVars[i][j])))
			}
			if e.feasible(q) {
				nps, err := e.exec(q, tbl.SymbolicAction, pkt)
				if err != nil {
					return nil, err
				}
				out = append(out, nps...)
			}
			if len(keyLins) > 0 {
				symEntryNeg = append(symEntryNeg,
					solver.NewCmp(ir.CmpNe, keyLins[0], solver.VarExpr(entryVars[i][0])))
			}
		}
	}

	// Default: miss every entry — fold the disjoint miss ways entry by
	// entry, pruning infeasible combinations eagerly.
	defaults := []*Path{p}
	for i := range tbl.Entries {
		ways := missWays(tbl.Entries[i])
		if len(ways) == 0 {
			continue
		}
		var next []*Path
		for _, dp := range defaults {
			for wi, way := range ways {
				q := dp
				if wi < len(ways)-1 {
					q = dp.Clone()
					e.countFork()
				}
				q.PC = append(q.PC, way...)
				e.Stats.FeasibilityChk++
				if !e.timedFeasible(q) {
					continue
				}
				next = append(next, q)
			}
		}
		defaults = next
		if len(defaults) > missPathCap {
			// Keep the first cap paths: counting becomes a slight
			// underestimate for pathological tables (documented).
			defaults = defaults[:missPathCap]
		}
		if len(defaults) == 0 {
			break
		}
	}
	for _, dp := range defaults {
		// Also miss every symbolic entry (first-key approximation, as for
		// concrete multi-key entries).
		dp.PC = append(dp.PC, symEntryNeg...)
		if len(symEntryNeg) > 0 && !e.feasible(dp) {
			continue
		}
		nps, err := e.exec(dp, tbl.Default, pkt)
		if err != nil {
			return nil, err
		}
		out = append(out, nps...)
	}
	return out, nil
}

// tableEntryVars lazily creates the persistent key variables of a table's
// symbolic entries. Domains follow the key fields' widths where the keys
// are plain field references. The registry is shared across worker views
// behind a mutex; the variable names depend only on the table, so the set
// is the same regardless of which worker populates it first.
func (e *Engine) tableEntryVars(tbl *ir.TableDecl, numKeys int) [][]solver.Var {
	e.tbl.mu.Lock()
	defer e.tbl.mu.Unlock()
	if vs, ok := e.tbl.m[tbl.Name]; ok {
		return vs
	}
	vs := make([][]solver.Var, tbl.SymbolicEntries)
	for i := range vs {
		vs[i] = make([]solver.Var, numKeys)
		for j := 0; j < numKeys; j++ {
			v := solver.Var{Pkt: -1, Field: fmt.Sprintf("__tbl_%s_e%d_k%d", tbl.Name, i, j)}
			dom := solver.FullInterval(32)
			if j < len(tbl.Keys) {
				if fr, ok := tbl.Keys[j].(ir.FieldRef); ok {
					if f, ok2 := e.Prog.Field(fr.Name); ok2 {
						dom = solver.FullInterval(f.Bits)
					}
				}
			}
			e.Space.SetDomain(v, dom)
			vs[i][j] = v
		}
	}
	e.tbl.m[tbl.Name] = vs
	return vs
}
