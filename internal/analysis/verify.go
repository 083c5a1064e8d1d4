package analysis

import (
	"repro/internal/ir"
)

// verify is the IR well-formedness pass. It re-checks everything Build
// validates — but collecting every finding as a structured diagnostic
// instead of stopping at the first error — and adds the checks Build does
// not perform: declaration sanity, out-of-range constants versus field and
// register widths, malformed match specs, recursive table application, and
// extern flag combinations the engine ignores.
func verify(p *ir.Program, r *Report) {
	verifyDecls(p, r)

	// Walk every statement, tracking the innermost enclosing block so
	// diagnostics carry a CFG location.
	walkWithBlocks(p, func(b *ir.Block, s ir.Stmt) {
		verifyStmt(p, r, b, s)
	})

	verifyTables(p, r)
	verifyApplyCycles(p, r)
}

func verifyDecls(p *ir.Program, r *Report) {
	seenField := map[string]bool{}
	for _, f := range p.Fields {
		if f.Bits <= 0 || f.Bits > ir.MaxFieldBits {
			r.add("verify", SevError, -1, "", "field %q has invalid width %d (fields are 1..%d bits)", f.Name, f.Bits, ir.MaxFieldBits)
		}
		if seenField[f.Name] {
			r.add("verify", SevError, -1, "", "duplicate field declaration %q", f.Name)
		}
		seenField[f.Name] = true
	}
	seenReg := map[string]bool{}
	for _, d := range p.Regs {
		if d.Bits <= 0 || d.Bits > 64 {
			r.add("verify", SevError, -1, "", "register %q has invalid width %d", d.Name, d.Bits)
		} else if max := regMax(d); d.Init > max {
			r.add("verify", SevWarn, -1, "",
				"register %q initial value %d exceeds its %d-bit range", d.Name, d.Init, d.Bits)
		}
		if seenReg[d.Name] {
			r.add("verify", SevError, -1, "", "duplicate register declaration %q", d.Name)
		}
		seenReg[d.Name] = true
	}
	for _, d := range p.RegArrays {
		if d.Size <= 0 {
			r.add("verify", SevError, -1, "", "register array %q has invalid size %d", d.Name, d.Size)
		}
	}
	for _, d := range p.HashTables {
		if d.Size <= 0 {
			r.add("verify", SevError, -1, "", "hash table %q has invalid size %d", d.Name, d.Size)
		}
	}
	for _, d := range p.Blooms {
		if d.Bits <= 0 || d.Hashes <= 0 {
			r.add("verify", SevError, -1, "",
				"bloom filter %q has invalid shape (%d bits, %d hashes)", d.Name, d.Bits, d.Hashes)
		}
	}
	for _, d := range p.Sketches {
		if d.Rows <= 0 || d.Cols <= 0 {
			r.add("verify", SevError, -1, "",
				"sketch %q has invalid shape %dx%d", d.Name, d.Rows, d.Cols)
		}
	}
}

func regMax(d ir.RegDecl) uint64 {
	if d.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(d.Bits)) - 1
}

func verifyStmt(p *ir.Program, r *Report, b *ir.Block, s ir.Stmt) {
	diag := func(sev Severity, format string, args ...interface{}) {
		if b != nil {
			r.addNode("verify", sev, b, format, args...)
		} else {
			r.add("verify", sev, -1, "", format, args...)
		}
	}
	checkExprs := func(es ...ir.Expr) {
		for _, e := range es {
			verifyExpr(p, e, diag)
		}
	}
	switch t := s.(type) {
	case *ir.Assign:
		checkExprs(t.Expr)
		switch lv := t.Target.(type) {
		case ir.RegLV:
			d, ok := p.Reg(lv.Reg)
			if !ok {
				diag(SevError, "assignment to unknown register %q", lv.Reg)
				break
			}
			if c, isConst := t.Expr.(ir.Const); isConst && c.V > regMax(d) {
				diag(SevWarn, "constant %d does not fit %d-bit register %q", c.V, d.Bits, d.Name)
			}
		}
	case *ir.If:
		verifyCond(p, t.Cond, diag)
	case *ir.Action:
		if t.Kind < ir.ActNoOp || t.Kind > ir.ActToBackend {
			diag(SevError, "unknown action kind %d", int(t.Kind))
		}
		if t.Arg != nil {
			checkExprs(t.Arg)
		} else if t.Kind == ir.ActForward || t.Kind == ir.ActMirror || t.Kind == ir.ActToBackend {
			diag(SevWarn, "%s action has no port argument", t.Kind)
		}
	case *ir.HashAccess:
		if _, ok := p.HashTable(t.Store); !ok {
			diag(SevError, "access of unknown hash table %q", t.Store)
		}
		checkExprs(t.Key...)
		if t.Value != nil {
			checkExprs(t.Value)
		}
		if !t.Write && t.Evict {
			diag(SevWarn, "hash access on %q sets evict without write (no effect)", t.Store)
		}
		if !t.Write && t.Inc {
			diag(SevWarn, "hash access on %q sets inc without write (no effect)", t.Store)
		}
	case *ir.BloomOp:
		if _, ok := p.Bloom(t.Filter); !ok {
			diag(SevError, "test of unknown bloom filter %q", t.Filter)
		}
		checkExprs(t.Key...)
	case *ir.SketchUpdate:
		if _, ok := p.Sketch(t.Sketch); !ok {
			diag(SevError, "update of unknown sketch %q", t.Sketch)
		}
		checkExprs(t.Key...)
		if t.Inc != nil {
			checkExprs(t.Inc)
		}
	case *ir.SketchBranch:
		if _, ok := p.Sketch(t.Sketch); !ok {
			diag(SevError, "branch on unknown sketch %q", t.Sketch)
		}
		if t.Op < ir.CmpEq || t.Op > ir.CmpGe {
			diag(SevError, "sketch branch has invalid comparison operator %d", int(t.Op))
		}
		checkExprs(t.Key...)
	case *ir.ArrayRead:
		if _, ok := p.RegArray(t.Array); !ok {
			diag(SevError, "read of unknown register array %q", t.Array)
		}
		checkExprs(t.Index)
	case *ir.ArrayWrite:
		d, ok := p.RegArray(t.Array)
		if !ok {
			diag(SevError, "write to unknown register array %q", t.Array)
		}
		checkExprs(t.Index, t.Value)
		if c, isConst := t.Index.(ir.Const); ok && isConst && c.V >= uint64(d.Size) {
			diag(SevError, "constant index %d out of bounds for array %q (size %d)",
				c.V, t.Array, d.Size)
		}
	case *ir.TableApply:
		if _, ok := p.Table(t.Table); !ok {
			diag(SevError, "apply of unknown table %q", t.Table)
		}
	}
}

func verifyExpr(p *ir.Program, e ir.Expr, diag func(Severity, string, ...interface{})) {
	walkExpr(e, func(x ir.Expr) {
		switch t := x.(type) {
		case ir.FieldRef:
			if _, ok := p.Field(t.Name); !ok {
				diag(SevError, "reference to unknown field %q", t.Name)
			}
		case ir.RegRef:
			if _, ok := p.Reg(t.Reg); !ok {
				diag(SevError, "reference to unknown register %q", t.Reg)
			}
		case ir.Bin:
			if t.Op < ir.OpAdd || t.Op > ir.OpShr {
				diag(SevError, "invalid binary operator %d", int(t.Op))
			}
		}
	})
}

func verifyCond(p *ir.Program, c ir.Cond, diag func(Severity, string, ...interface{})) {
	walkCond(c, func(cc ir.Cond) {
		cmp, ok := cc.(ir.Cmp)
		if !ok {
			return
		}
		if cmp.Op < ir.CmpEq || cmp.Op > ir.CmpGe {
			diag(SevError, "invalid comparison operator %d", int(cmp.Op))
		}
		verifyExpr(p, cmp.A, diag)
		verifyExpr(p, cmp.B, diag)
		// Out-of-range constant versus the field's bit width: the
		// comparison has a constant outcome, which almost always means a
		// typo'd width or literal (e.g. testing a 255-valued flag mask
		// against an 8-bit field is fine, but 256 can never match).
		if f, v, swapped, isFC := fieldVsConst(cmp); isFC {
			if decl, ok := p.Field(f); ok && v > decl.Max() {
				op := cmp.Op
				if swapped {
					op = swapCmp(op)
				}
				if op == ir.CmpEq || op == ir.CmpNe || constOutcomeImpossible(op) {
					diag(SevWarn,
						"constant %d exceeds %d-bit field %q (comparison outcome is fixed)",
						v, decl.Bits, f)
				}
			}
		}
	})
}

// constOutcomeImpossible reports whether `field op constant` with a constant
// above the field's maximum has a fixed outcome worth flagging. Eq/Ne are
// always fixed; ordering comparisons are fixed too (always-true for Lt/Le,
// always-false for Gt/Ge), and the interval pass reports the dead arm.
func constOutcomeImpossible(op ir.CmpOp) bool {
	switch op {
	case ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe:
		return true
	}
	return false
}

// fieldVsConst matches `pkt.f op const` or `const op pkt.f` (swapped=true).
func fieldVsConst(c ir.Cmp) (field string, v uint64, swapped, ok bool) {
	if f, isF := c.A.(ir.FieldRef); isF {
		if k, isC := c.B.(ir.Const); isC {
			return f.Name, k.V, false, true
		}
	}
	if f, isF := c.B.(ir.FieldRef); isF {
		if k, isC := c.A.(ir.Const); isC {
			return f.Name, k.V, true, true
		}
	}
	return "", 0, false, false
}

func swapCmp(op ir.CmpOp) ir.CmpOp {
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

func verifyTables(p *ir.Program, r *Report) {
	diag := func(sev Severity, format string, args ...interface{}) {
		r.add("verify", sev, -1, "", format, args...)
	}
	for ti := range p.Tables {
		t := &p.Tables[ti]
		for _, k := range t.Keys {
			verifyExpr(p, k, diag)
		}
		for ei, e := range t.Entries {
			if len(e.Match) != len(t.Keys) {
				diag(SevError, "table %q entry %d has %d match specs for %d keys",
					t.Name, ei, len(e.Match), len(t.Keys))
				continue
			}
			for ki, spec := range e.Match {
				if spec.Kind == ir.MatchRange && spec.Lo > spec.Hi {
					diag(SevError, "table %q entry %d key %d has empty range [%d,%d]",
						t.Name, ei, ki, spec.Lo, spec.Hi)
				}
				// A spec value above the key field's maximum can never match.
				if fr, ok := t.Keys[ki].(ir.FieldRef); ok && spec.Kind != ir.MatchWildcard {
					if decl, ok2 := p.Field(fr.Name); ok2 {
						v := spec.Lo
						if spec.Kind == ir.MatchRange {
							v = spec.Lo // range fully above max iff Lo > max
						}
						if v > decl.Max() {
							diag(SevWarn, "table %q entry %d key %d matches %d, above %d-bit field %q",
								t.Name, ei, ki, v, decl.Bits, fr.Name)
						}
					}
				}
			}
		}
		if t.SymbolicEntries > 0 && t.SymbolicAction == nil {
			diag(SevWarn, "table %q declares %d symbolic entries but no symbolic action (ignored)",
				t.Name, t.SymbolicEntries)
		}
	}
}

// verifyApplyCycles rejects recursive table application (a table whose
// actions re-apply the table, directly or transitively): the data plane has
// no call stack, and CFG construction would not terminate on such programs.
func verifyApplyCycles(p *ir.Program, r *Report) {
	// applies[t] = set of tables applied from within t's actions.
	applies := map[string]map[string]bool{}
	for ti := range p.Tables {
		t := &p.Tables[ti]
		used := map[string]bool{}
		collect := func(s ir.Stmt) {
			walkStmtShallow(s, func(st ir.Stmt) {
				if ap, ok := st.(*ir.TableApply); ok {
					used[ap.Table] = true
				}
			})
		}
		for _, e := range t.Entries {
			collect(e.Action)
		}
		collect(t.Default)
		collect(t.SymbolicAction)
		applies[t.Name] = used
	}
	state := map[string]int{} // 0 unvisited, 1 on stack, 2 done
	var visit func(name string) bool
	visit = func(name string) bool {
		switch state[name] {
		case 1:
			return false // cycle
		case 2:
			return true
		}
		state[name] = 1
		for dep := range applies[name] {
			if !visit(dep) {
				return false
			}
		}
		state[name] = 2
		return true
	}
	for ti := range p.Tables {
		name := p.Tables[ti].Name
		if state[name] == 0 && !visit(name) {
			r.add("verify", SevError, -1, "",
				"table %q is applied recursively from its own actions", name)
		}
	}
}

// ---- shared walkers ----

// walkExpr calls fn on e and every sub-expression.
func walkExpr(e ir.Expr, fn func(ir.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch t := e.(type) {
	case ir.Bin:
		walkExpr(t.A, fn)
		walkExpr(t.B, fn)
	case ir.HashExpr:
		for _, a := range t.Args {
			walkExpr(a, fn)
		}
	}
}

// walkCond calls fn on c and every sub-condition.
func walkCond(c ir.Cond, fn func(ir.Cond)) {
	if c == nil {
		return
	}
	fn(c)
	switch t := c.(type) {
	case ir.Not:
		walkCond(t.C, fn)
	case ir.AndC:
		walkCond(t.A, fn)
		walkCond(t.B, fn)
	case ir.OrC:
		walkCond(t.A, fn)
		walkCond(t.B, fn)
	}
}

// walkStmtShallow walks a statement tree without following TableApply.
func walkStmtShallow(s ir.Stmt, fn func(ir.Stmt)) {
	if s == nil {
		return
	}
	fn(s)
	switch t := s.(type) {
	case *ir.Block:
		for _, c := range t.Stmts {
			walkStmtShallow(c, fn)
		}
	case *ir.If:
		walkStmtShallow(t.Then, fn)
		walkStmtShallow(t.Else, fn)
	case *ir.HashAccess:
		walkStmtShallow(t.OnEmpty, fn)
		walkStmtShallow(t.OnHit, fn)
		walkStmtShallow(t.OnCollide, fn)
	case *ir.BloomOp:
		walkStmtShallow(t.OnHit, fn)
		walkStmtShallow(t.OnMiss, fn)
	case *ir.SketchBranch:
		walkStmtShallow(t.OnTrue, fn)
		walkStmtShallow(t.OnFalse, fn)
	}
}

// walkWithBlocks walks every statement of the program (root plus all table
// actions), passing the innermost enclosing labeled block alongside each
// statement.
func walkWithBlocks(p *ir.Program, fn func(*ir.Block, ir.Stmt)) {
	var walk func(b *ir.Block, s ir.Stmt)
	walk = func(b *ir.Block, s ir.Stmt) {
		if s == nil {
			return
		}
		if blk, ok := s.(*ir.Block); ok {
			b = blk
		}
		fn(b, s)
		switch t := s.(type) {
		case *ir.Block:
			for _, c := range t.Stmts {
				walk(b, c)
			}
		case *ir.If:
			walk(b, t.Then)
			walk(b, t.Else)
		case *ir.HashAccess:
			walk(b, t.OnEmpty)
			walk(b, t.OnHit)
			walk(b, t.OnCollide)
		case *ir.BloomOp:
			walk(b, t.OnHit)
			walk(b, t.OnMiss)
		case *ir.SketchBranch:
			walk(b, t.OnTrue)
			walk(b, t.OnFalse)
		}
	}
	walk(nil, p.Root)
	for ti := range p.Tables {
		t := &p.Tables[ti]
		for _, e := range t.Entries {
			walk(nil, e.Action)
		}
		walk(nil, t.Default)
		walk(nil, t.SymbolicAction)
	}
}
