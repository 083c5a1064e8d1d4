package analysis

import (
	"math"
	"math/bits"

	"repro/internal/ir"
	"repro/internal/solver"
)

// The interval pass performs constant/interval propagation over packet
// header fields, reusing the solver's interval domain. Within one packet's
// processing a header field is a constant, so refinements learned from an
// enclosing guard hold for everything nested beneath it; a nested condition
// that contradicts its guards is statically infeasible and its arm can never
// execute. Registers, metadata, and hash/extern values are treated as
// unknown (full interval): the pass never assumes anything about persistent
// state, which is what keeps it sound across the per-packet loop.

var top = solver.Interval{Lo: 0, Hi: math.MaxUint64}

// env maps field names to their currently-known interval. Missing entries
// default to the field's declared full range.
type env struct {
	p  *ir.Program
	iv map[string]solver.Interval
}

func newEnv(p *ir.Program) *env {
	return &env{p: p, iv: map[string]solver.Interval{}}
}

func (e *env) get(field string) solver.Interval {
	if iv, ok := e.iv[field]; ok {
		return iv
	}
	if f, ok := e.p.Field(field); ok {
		return solver.FullInterval(f.Bits)
	}
	return top
}

func (e *env) clone() *env {
	c := &env{p: e.p, iv: make(map[string]solver.Interval, len(e.iv))}
	for k, v := range e.iv {
		c.iv[k] = v
	}
	return c
}

// feasible reports whether no field's interval is empty.
func (e *env) feasible() bool {
	for _, iv := range e.iv {
		if iv.Empty() {
			return false
		}
	}
	return true
}

// ---- abstract expression evaluation ----

func single(v uint64) solver.Interval { return solver.Interval{Lo: v, Hi: v} }

func isSingle(iv solver.Interval) (uint64, bool) {
	if iv.Lo == iv.Hi {
		return iv.Lo, true
	}
	return 0, false
}

// evalExpr returns a sound over-approximation of the expression's value
// range. Registers, metadata, and hashes evaluate to top: the pass knows
// nothing about state.
func evalExpr(e *env, x ir.Expr) solver.Interval {
	switch t := x.(type) {
	case ir.Const:
		return single(t.V)
	case ir.FieldRef:
		return e.get(t.Name)
	case ir.Bin:
		return evalBin(e, t)
	}
	// RegRef, MetaRef, HashExpr: unknown.
	return top
}

func evalBin(e *env, b ir.Bin) solver.Interval {
	a := evalExpr(e, b.A)
	c := evalExpr(e, b.B)
	if a.Empty() || c.Empty() {
		return top
	}
	// Exact evaluation when both sides are known constants, by the IR's
	// concrete semantics (uint64 wraparound included).
	if av, aok := isSingle(a); aok {
		if cv, cok := isSingle(c); cok {
			return single(b.Op.Eval(av, cv))
		}
	}
	switch b.Op {
	case ir.OpAdd:
		// Monotone when the sum cannot wrap.
		if a.Hi <= math.MaxUint64-c.Hi {
			return solver.Interval{Lo: a.Lo + c.Lo, Hi: a.Hi + c.Hi}
		}
	case ir.OpSub:
		// Monotone when no underflow is possible.
		if a.Lo >= c.Hi {
			return solver.Interval{Lo: a.Lo - c.Hi, Hi: a.Hi - c.Lo}
		}
	case ir.OpMul:
		if hiA, hiB := a.Hi, c.Hi; hiA == 0 || hiB <= math.MaxUint64/max(hiA, 1) {
			return solver.Interval{Lo: a.Lo * c.Lo, Hi: a.Hi * c.Hi}
		}
	case ir.OpAnd:
		// x & y never exceeds either operand.
		return solver.Interval{Lo: 0, Hi: min(a.Hi, c.Hi)}
	case ir.OpOr:
		// x | y < 2^max(width(x), width(y)) and is at least max(lo).
		n := max(bits.Len64(a.Hi), bits.Len64(c.Hi))
		return solver.Interval{Lo: max(a.Lo, c.Lo), Hi: maskOfLen(n)}
	case ir.OpXor:
		n := max(bits.Len64(a.Hi), bits.Len64(c.Hi))
		return solver.Interval{Lo: 0, Hi: maskOfLen(n)}
	case ir.OpMod:
		if cv, ok := isSingle(c); ok && cv > 0 {
			if a.Hi < cv {
				return a // modulus never taken
			}
			return solver.Interval{Lo: 0, Hi: cv - 1}
		}
	case ir.OpShr:
		if cv, ok := isSingle(c); ok {
			k := cv & 63
			return solver.Interval{Lo: a.Lo >> k, Hi: a.Hi >> k}
		}
	case ir.OpShl:
		if cv, ok := isSingle(c); ok {
			k := cv & 63
			if k < 64 && a.Hi <= math.MaxUint64>>k {
				return solver.Interval{Lo: a.Lo << k, Hi: a.Hi << k}
			}
		}
	}
	return top
}

func maskOfLen(n int) uint64 {
	if n >= 64 {
		return math.MaxUint64
	}
	return (uint64(1) << uint(n)) - 1
}

// ---- three-valued condition evaluation ----

type tri int

const (
	triUnknown tri = iota
	triTrue
	triFalse
)

func (t tri) not() tri {
	switch t {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triUnknown
}

// evalCmp decides a comparison of two intervals when every value pair
// agrees on the outcome.
func evalCmp(op ir.CmpOp, a, b solver.Interval) tri {
	if a.Empty() || b.Empty() {
		return triUnknown
	}
	switch op {
	case ir.CmpEq:
		if av, ok := isSingle(a); ok {
			if bv, ok2 := isSingle(b); ok2 && av == bv {
				return triTrue
			}
		}
		if a.Hi < b.Lo || a.Lo > b.Hi {
			return triFalse
		}
	case ir.CmpNe:
		return evalCmp(ir.CmpEq, a, b).not()
	case ir.CmpLt:
		if a.Hi < b.Lo {
			return triTrue
		}
		if a.Lo >= b.Hi {
			return triFalse
		}
	case ir.CmpLe:
		if a.Hi <= b.Lo {
			return triTrue
		}
		if a.Lo > b.Hi {
			return triFalse
		}
	case ir.CmpGt:
		return evalCmp(ir.CmpLe, a, b).not()
	case ir.CmpGe:
		return evalCmp(ir.CmpLt, a, b).not()
	}
	return triUnknown
}

func evalCond(e *env, c ir.Cond) tri {
	switch t := c.(type) {
	case ir.Cmp:
		return evalCmp(t.Op, evalExpr(e, t.A), evalExpr(e, t.B))
	case ir.Not:
		return evalCond(e, t.C).not()
	case ir.AndC:
		a, b := evalCond(e, t.A), evalCond(e, t.B)
		if a == triFalse || b == triFalse {
			return triFalse
		}
		if a == triTrue && b == triTrue {
			return triTrue
		}
	case ir.OrC:
		a, b := evalCond(e, t.A), evalCond(e, t.B)
		if a == triTrue || b == triTrue {
			return triTrue
		}
		if a == triFalse && b == triFalse {
			return triFalse
		}
	}
	return triUnknown
}

// ---- refinement ----

// refineTrue returns a copy of the environment narrowed under the
// assumption that c holds. Only `field op value-interval` shapes refine;
// everything else passes through unchanged (sound: refinement may only
// narrow towards the truth, never invent constraints).
func refineTrue(e *env, c ir.Cond) *env {
	out := e.clone()
	assumeTrue(out, c)
	return out
}

func refineFalse(e *env, c ir.Cond) *env {
	out := e.clone()
	assumeFalse(out, c)
	return out
}

func assumeTrue(e *env, c ir.Cond) {
	switch t := c.(type) {
	case ir.Cmp:
		assumeCmp(e, t)
	case ir.Not:
		assumeFalse(e, t.C)
	case ir.AndC:
		assumeTrue(e, t.A)
		assumeTrue(e, t.B)
	case ir.OrC:
		// a||b true refines nothing unless one side is statically false.
		if evalCond(e, t.A) == triFalse {
			assumeTrue(e, t.B)
		} else if evalCond(e, t.B) == triFalse {
			assumeTrue(e, t.A)
		}
	}
}

func assumeFalse(e *env, c ir.Cond) {
	switch t := c.(type) {
	case ir.Cmp:
		assumeCmp(e, ir.Cmp{Op: t.Op.Negate(), A: t.A, B: t.B})
	case ir.Not:
		assumeTrue(e, t.C)
	case ir.OrC:
		// !(a||b) => !a && !b.
		assumeFalse(e, t.A)
		assumeFalse(e, t.B)
	case ir.AndC:
		// !(a&&b) refines nothing unless one side is statically true.
		if evalCond(e, t.A) == triTrue {
			assumeFalse(e, t.B)
		} else if evalCond(e, t.B) == triTrue {
			assumeFalse(e, t.A)
		}
	}
}

// assumeCmp narrows a field's interval from `pkt.f op B` or `A op pkt.f`.
func assumeCmp(e *env, c ir.Cmp) {
	if f, ok := c.A.(ir.FieldRef); ok {
		narrowField(e, f.Name, c.Op, evalExpr(e, c.B))
	}
	if f, ok := c.B.(ir.FieldRef); ok {
		narrowField(e, f.Name, c.Op.Swap(), evalExpr(e, c.A))
	}
}

// narrowField intersects field's interval with {x : exists v in b, x op v}.
func narrowField(e *env, field string, op ir.CmpOp, b solver.Interval) {
	if b.Empty() {
		return
	}
	iv := e.get(field)
	switch op {
	case ir.CmpEq:
		iv = iv.Intersect(b)
	case ir.CmpNe:
		// Only a singleton at an interval boundary can be clipped.
		if v, ok := isSingle(b); ok {
			if iv.Lo == v && iv.Hi == v {
				iv = solver.Interval{Lo: 1, Hi: 0} // empty
			} else if iv.Lo == v {
				iv.Lo++
			} else if iv.Hi == v {
				iv.Hi--
			}
		}
	case ir.CmpLt:
		if b.Hi == 0 {
			iv = solver.Interval{Lo: 1, Hi: 0}
		} else if iv.Hi > b.Hi-1 {
			iv.Hi = b.Hi - 1
		}
	case ir.CmpLe:
		if iv.Hi > b.Hi {
			iv.Hi = b.Hi
		}
	case ir.CmpGt:
		if b.Lo == math.MaxUint64 {
			iv = solver.Interval{Lo: 1, Hi: 0}
		} else if iv.Lo < b.Lo+1 {
			iv.Lo = b.Lo + 1
		}
	case ir.CmpGe:
		if iv.Lo < b.Lo {
			iv.Lo = b.Lo
		}
	}
	e.iv[field] = iv
}

// ---- the pass ----

type intervalPass struct {
	p        *ir.Program
	r        *Report
	live     map[int]bool
	visiting map[string]bool // tables on the visit stack (cycle guard)
}

// intervals walks the program marking blocks live under every feasible
// combination of guards; blocks never marked (and not already
// CFG-unreachable) are statically dead. Dead blocks feed the profiler's
// pruning hook and are reported as probability-0 code.
func intervals(p *ir.Program, r *Report) {
	ip := &intervalPass{p: p, r: r, live: map[int]bool{}, visiting: map[string]bool{}}
	ip.visit(p.Root, newEnv(p))

	idom := dominators(ir.BuildCFG(p), entryID(p))
	var deadList []*ir.Block
	for _, b := range p.Nodes() {
		if !ip.live[b.ID] && !r.Unreachable[b.ID] {
			r.Dead[b.ID] = true
			deadList = append(deadList, b)
			r.addNode("interval", SevWarn, b,
				"block is statically dead: every path to it contradicts an enclosing guard")
		}
	}
	// Dominator closure: anything dominated by a dead block is dead too
	// (structural marking already implies this for nested arms; the closure
	// additionally catches blocks whose only CFG routes pass a dead node).
	for _, d := range deadList {
		for _, b := range p.Nodes() {
			if !r.Dead[b.ID] && !r.Unreachable[b.ID] && dominatedBy(idom, b.ID, d.ID) {
				r.Dead[b.ID] = true
				r.addNode("interval", SevWarn, b,
					"block is statically dead: dominated by dead block %q", d.Label)
			}
		}
	}
}

func (ip *intervalPass) visit(s ir.Stmt, e *env) {
	if s == nil || !e.feasible() {
		return
	}
	switch t := s.(type) {
	case *ir.Block:
		ip.live[t.ID] = true
		for _, c := range t.Stmts {
			ip.visit(c, e)
		}
	case *ir.If:
		ip.visitIf(t, e)
	case *ir.HashAccess:
		ip.visit(t.OnEmpty, e)
		ip.visit(t.OnHit, e)
		ip.visit(t.OnCollide, e)
	case *ir.BloomOp:
		ip.visit(t.OnHit, e)
		ip.visit(t.OnMiss, e)
	case *ir.SketchBranch:
		ip.visit(t.OnTrue, e)
		ip.visit(t.OnFalse, e)
	case *ir.TableApply:
		ip.visitTable(t, e)
	}
}

func (ip *intervalPass) visitIf(f *ir.If, e *env) {
	switch evalCond(e, f.Cond) {
	case triTrue:
		if f.Else != nil {
			ip.diagConst(f, true)
		}
		ip.visit(f.Then, refineTrue(e, f.Cond))
	case triFalse:
		ip.diagConst(f, false)
		if f.Else != nil {
			ip.visit(f.Else, refineFalse(e, f.Cond))
		}
	default:
		ip.checkFlagGuard(f, e)
		thenEnv := refineTrue(e, f.Cond)
		if thenEnv.feasible() {
			ip.visit(f.Then, thenEnv)
		}
		elseEnv := refineFalse(e, f.Cond)
		if f.Else != nil && elseEnv.feasible() {
			ip.visit(f.Else, elseEnv)
		}
	}
}

func (ip *intervalPass) diagConst(f *ir.If, always bool) {
	word := "false"
	armLabel := blockLabel(f.Then)
	if always {
		word = "true"
		armLabel = blockLabel(f.Else)
	}
	ip.r.add("interval", SevWarn, -1, "",
		"condition %q is always %s under enclosing guards (arm %q is infeasible)",
		f.Cond.String(), word, armLabel)
}

// checkFlagGuard is the protocol-semantics lint the ISSUE's example calls
// for: testing TCP flag bits in a region where the enclosing guards already
// exclude proto == TCP is semantically meaningless even though the header
// space makes it satisfiable (the fields are independent bits on the wire).
// It is a warning only and never feeds the prune set.
func (ip *intervalPass) checkFlagGuard(f *ir.If, e *env) {
	refs := condFields(f.Cond)
	if !refs["tcp_flags"] {
		return
	}
	proto := e.get("proto")
	full := solver.FullInterval(8)
	if proto == full {
		return // unconstrained: nothing known
	}
	if !proto.Contains(ir.ProtoTCP) {
		ip.r.add("interval", SevWarn, -1, "",
			"condition %q tests tcp_flags where enclosing guards exclude proto == TCP",
			f.Cond.String())
	}
}

func condFields(c ir.Cond) map[string]bool {
	out := map[string]bool{}
	walkCond(c, func(cc ir.Cond) {
		if cmp, ok := cc.(ir.Cmp); ok {
			for _, x := range []ir.Expr{cmp.A, cmp.B} {
				walkExpr(x, func(sub ir.Expr) {
					if fr, ok := sub.(ir.FieldRef); ok {
						out[fr.Name] = true
					}
				})
			}
		}
	})
	return out
}

func blockLabel(s ir.Stmt) string {
	if b, ok := s.(*ir.Block); ok {
		return b.Label
	}
	return "?"
}

func (ip *intervalPass) visitTable(t *ir.TableApply, e *env) {
	tbl, ok := ip.p.Table(t.Table)
	if !ok || ip.visiting[t.Table] {
		return
	}
	ip.visiting[t.Table] = true
	defer delete(ip.visiting, t.Table)

	for ei := range tbl.Entries {
		entry := &tbl.Entries[ei]
		ee := e.clone()
		feasible := true
		for ki, spec := range entry.Match {
			if ki >= len(tbl.Keys) {
				break
			}
			fr, isField := tbl.Keys[ki].(ir.FieldRef)
			if !isField {
				continue // non-field key: no refinement
			}
			switch spec.Kind {
			case ir.MatchExact:
				ee.iv[fr.Name] = ee.get(fr.Name).Intersect(single(spec.Lo))
			case ir.MatchRange:
				ee.iv[fr.Name] = ee.get(fr.Name).Intersect(solver.Interval{Lo: spec.Lo, Hi: spec.Hi})
			}
			if ee.get(fr.Name).Empty() {
				feasible = false
			}
		}
		if !feasible {
			ip.r.add("interval", SevWarn, -1, "",
				"table %q entry %d can never match under enclosing guards", tbl.Name, ei)
			continue
		}
		ip.visit(entry.Action, ee)
	}
	// The default and symbolic arms run under the unrefined environment
	// (negated-match refinement is deliberately not attempted).
	ip.visit(tbl.Default, e)
	ip.visit(tbl.SymbolicAction, e)
}
