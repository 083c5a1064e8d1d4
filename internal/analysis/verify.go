package analysis

import (
	"repro/internal/ir"
)

// verify is the IR well-formedness pass. Its errors are the program's
// ir.Problems, the one rule set Build fails on, so a program has a verify
// error exactly when Build rejects it; verify reports every problem at its
// block instead of stopping at the first. It adds only warnings: register
// initial values and constants that overflow their width, table entries
// that match above their key field's range, port actions without a port,
// and extern flag combinations the engine ignores.
func verify(p *ir.Program, r *Report) {
	for _, q := range p.Problems() {
		r.add("verify", SevError, q.Node, q.Block, "%s", q.Msg)
	}
	for _, d := range p.Regs {
		if d.Bits > 0 && d.Bits <= 64 && d.Init > regMax(d) {
			r.add("verify", SevWarn, -1, "",
				"register %q initial value %d exceeds its %d-bit range", d.Name, d.Init, d.Bits)
		}
	}
	p.WalkBlocks(func(b *ir.Block, s ir.Stmt) {
		verifyStmt(p, r, b, s)
	})
	verifyTables(p, r)
}

func regMax(d ir.RegDecl) uint64 {
	if d.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(d.Bits)) - 1
}

func verifyStmt(p *ir.Program, r *Report, b *ir.Block, s ir.Stmt) {
	warn := func(format string, args ...interface{}) {
		r.addNode("verify", SevWarn, b, format, args...)
	}
	switch t := s.(type) {
	case *ir.Assign:
		if lv, ok := t.Target.(ir.RegLV); ok {
			d, ok := p.Reg(lv.Reg)
			if c, isConst := t.Expr.(ir.Const); ok && isConst && c.V > regMax(d) {
				warn("constant %d does not fit %d-bit register %q", c.V, d.Bits, d.Name)
			}
		}
	case *ir.If:
		walkCond(t.Cond, func(cc ir.Cond) {
			if cmp, ok := cc.(ir.Cmp); ok {
				verifyCmpRange(p, cmp, warn)
			}
		})
	case *ir.Action:
		if t.Arg == nil && (t.Kind == ir.ActForward || t.Kind == ir.ActMirror || t.Kind == ir.ActToBackend) {
			warn("%s action has no port argument", t.Kind)
		}
	case *ir.HashAccess:
		if !t.Write && t.Evict {
			warn("hash access on %q sets evict without write (no effect)", t.Store)
		}
		if !t.Write && t.Inc {
			warn("hash access on %q sets inc without write (no effect)", t.Store)
		}
	}
}

// verifyCmpRange flags a constant out of range for the compared field's
// bit width: the comparison has a constant outcome, which almost always
// means a typo'd width or literal (e.g. testing a 255-valued flag mask
// against an 8-bit field is fine, but 256 can never match).
func verifyCmpRange(p *ir.Program, cmp ir.Cmp, warn func(string, ...interface{})) {
	f, v, swapped, isFC := fieldVsConst(cmp)
	if !isFC {
		return
	}
	if decl, ok := p.Field(f); ok && v > decl.Max() {
		op := cmp.Op
		if swapped {
			op = swapCmp(op)
		}
		if op == ir.CmpEq || op == ir.CmpNe || constOutcomeImpossible(op) {
			warn("constant %d exceeds %d-bit field %q (comparison outcome is fixed)",
				v, decl.Bits, f)
		}
	}
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
	warn := func(format string, args ...interface{}) {
		r.add("verify", SevWarn, -1, "", format, args...)
	}
	for ti := range p.Tables {
		t := &p.Tables[ti]
		for ei, e := range t.Entries {
			if len(e.Match) != len(t.Keys) {
				continue // an ir problem
			}
			// A spec value above the key field's maximum can never match
			// (a range lies fully above it iff its Lo does).
			for ki, spec := range e.Match {
				if fr, ok := t.Keys[ki].(ir.FieldRef); ok && spec.Kind != ir.MatchWildcard {
					if decl, ok := p.Field(fr.Name); ok && spec.Lo > decl.Max() {
						warn("table %q entry %d key %d matches %d, above %d-bit field %q",
							t.Name, ei, ki, spec.Lo, decl.Bits, fr.Name)
					}
				}
			}
		}
		if t.SymbolicEntries > 0 && t.SymbolicAction == nil {
			warn("table %q declares %d symbolic entries but no symbolic action (ignored)",
				t.Name, t.SymbolicEntries)
		}
	}
}

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
