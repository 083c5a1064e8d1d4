package solver

import (
	"math"
	"sort"

	"repro/internal/ir"
)

// Member records that a variable equals its equivalence-class root plus a
// constant offset: val(Var) = val(root) + Off.
type Member struct {
	Var Var
	Off int64
}

// Diff is a difference constraint over class roots: val(A) - val(B) <= C.
type Diff struct {
	A, B Var
	C    int64
}

// Neq is a disequality over class roots: val(A) != val(B) + C.
type Neq struct {
	A, B Var
	C    int64
}

// System is the normal form of a conjunction of constraints: interval bounds
// per equality class, difference constraints, disequalities, punched holes
// (unary disequalities), and a residue of generic constraints that did not
// fit the structured fragment. It is consumed both by the concrete solver
// (Solve) and by the model counter.
type System struct {
	Space *Space

	// Roots lists equality-class roots in deterministic order.
	Roots []Var
	// RootIv is the propagated interval of each root.
	RootIv map[Var]Interval
	// Members maps each root to its class members (always including the
	// root itself with offset 0).
	Members map[Var][]Member

	Diffs   []Diff
	Neqs    []Neq
	Holes   map[Var][]uint64 // root -> excluded root-values
	Generic []Constraint

	// Feasible is false when propagation proved the system unsatisfiable.
	Feasible bool
}

type unionFind struct {
	parent map[Var]Var
	off    map[Var]int64 // val(v) = val(parent[v]) + off[v]
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[Var]Var{}, off: map[Var]int64{}}
}

// find returns the root of v and the offset such that val(v) = val(root)+off.
func (u *unionFind) find(v Var) (Var, int64) {
	p, ok := u.parent[v]
	if !ok {
		u.parent[v] = v
		u.off[v] = 0
		return v, 0
	}
	if p == v {
		return v, 0
	}
	root, poff := u.find(p)
	u.parent[v] = root
	u.off[v] += poff
	return root, u.off[v]
}

// union merges so that val(a) = val(b) + k. Returns false on contradiction.
func (u *unionFind) union(a, b Var, k int64) bool {
	ra, oa := u.find(a) // val(a) = val(ra) + oa
	rb, ob := u.find(b) // val(b) = val(rb) + ob
	if ra == rb {
		// val(ra)+oa = val(ra)+ob+k  =>  oa == ob+k
		return oa == ob+k
	}
	// Attach ra under rb: val(ra) = val(a) - oa = val(b)+k-oa = val(rb)+ob+k-oa.
	u.parent[ra] = rb
	u.off[ra] = ob + k - oa
	return true
}

// classify splits a linear expression into the structured fragments.
type kind int

const (
	kConst  kind = iota
	kUnary       // c*x + k  (|c| may be > 1)
	kBinary      // x - y + k (unit coefficients of opposite sign)
	kGeneric
)

func classify(e LinExpr) kind {
	switch len(e.Terms) {
	case 0:
		return kConst
	case 1:
		return kUnary
	case 2:
		a, b := e.Terms[0].Coef, e.Terms[1].Coef
		if (a == 1 && b == -1) || (a == -1 && b == 1) {
			return kBinary
		}
	}
	return kGeneric
}

// Build normalizes a conjunction of constraints over the given space.
// The returned system has Feasible == false when propagation found a
// contradiction; it is conservative in the other direction (Feasible true
// does not guarantee satisfiability when disequalities or generic residue
// are present — use Solve for a definitive witness).
func Build(cs []Constraint, space *Space) *System {
	metrics.builds.Add(1)
	sys := &System{
		Space:    space,
		RootIv:   map[Var]Interval{},
		Members:  map[Var][]Member{},
		Holes:    map[Var][]uint64{},
		Feasible: true,
	}
	uf := newUnionFind()
	vars := map[Var]bool{}
	for _, c := range cs {
		for _, v := range c.E.Vars() {
			vars[v] = true
			uf.find(v)
		}
	}

	// Pass 1: equalities between two unit-coefficient variables define the
	// classes.
	var rest []Constraint
	for _, c := range cs {
		if c.Op == ir.CmpEq && classify(c.E) == kBinary {
			// x - y + k == 0  =>  val(x) = val(y) - k.
			x, y, k := binaryParts(c.E)
			if !uf.union(x, y, -k) {
				sys.Feasible = false
			}
			continue
		}
		rest = append(rest, c)
	}

	// Initialize root intervals from member domains.
	var allVars []Var
	for v := range vars {
		allVars = append(allVars, v)
	}
	sort.Slice(allVars, func(i, j int) bool { return allVars[i].Less(allVars[j]) })
	for _, v := range allVars {
		r, off := uf.find(v)
		sys.Members[r] = append(sys.Members[r], Member{Var: v, Off: off})
		// val(v) = val(r) + off, and val(v) ∈ Domain(v)
		// => val(r) ∈ Domain(v) - off.
		dom := space.Domain(v).Shift(-off)
		if cur, ok := sys.RootIv[r]; ok {
			sys.RootIv[r] = cur.Intersect(dom)
		} else {
			sys.RootIv[r] = dom
		}
	}
	for r := range sys.Members {
		sys.Roots = append(sys.Roots, r)
	}
	sort.Slice(sys.Roots, func(i, j int) bool { return sys.Roots[i].Less(sys.Roots[j]) })

	// Pass 2: everything else, rewritten onto roots.
	for _, c := range rest {
		switch classify(c.E) {
		case kConst:
			if !c.Holds(nil) {
				sys.Feasible = false
			}
		case kUnary:
			sys.addUnary(uf, c)
		case kBinary:
			sys.addBinary(uf, c)
		default:
			sys.Generic = append(sys.Generic, rewriteOnRoots(uf, c))
		}
	}

	sys.propagate()
	return sys
}

func binaryParts(e LinExpr) (x, y Var, k int64) {
	a, b := e.Terms[0], e.Terms[1]
	if a.Coef == 1 {
		return a.Var, b.Var, e.K // x - y + k
	}
	return b.Var, a.Var, e.K // (b is +1)
}

// addUnary handles c*x + k op 0.
func (s *System) addUnary(uf *unionFind, con Constraint) {
	t := con.E.Terms[0]
	r, off := uf.find(t.Var)
	c, k := t.Coef, con.E.K
	// c*(val(r)+off) + k op 0  =>  c*val(r) op -(k + c*off)
	rhs := -(k + c*off)
	op := con.Op
	if c < 0 {
		c = -c
		rhs = -rhs
		op = flipIneq(op)
	}
	// Now: c*val(r) op rhs with c > 0.
	switch op {
	case ir.CmpEq:
		if rhs < 0 || rhs%c != 0 {
			s.Feasible = false
			return
		}
		v := uint64(rhs / c)
		s.RootIv[r] = s.RootIv[r].Intersect(Interval{v, v})
	case ir.CmpNe:
		if rhs >= 0 && rhs%c == 0 {
			s.addHole(r, uint64(rhs/c))
		}
	case ir.CmpLe, ir.CmpLt:
		// c*v <= rhs (or < rhs): v <= floor(rhs'/c)
		limit := rhs
		if op == ir.CmpLt {
			limit--
		}
		if limit < 0 {
			s.Feasible = false
			return
		}
		hi := uint64(limit / c) // floor for non-negative
		s.RootIv[r] = s.RootIv[r].Intersect(Interval{0, hi})
	case ir.CmpGe, ir.CmpGt:
		limit := rhs
		if op == ir.CmpGt {
			limit++
		}
		if limit <= 0 {
			return // always true for unsigned v
		}
		lo := uint64((limit + c - 1) / c) // ceil
		iv := s.RootIv[r]
		if lo > iv.Lo {
			iv.Lo = lo
		}
		s.RootIv[r] = iv
	}
}

func flipIneq(op ir.CmpOp) ir.CmpOp {
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
	return op // Eq/Ne unchanged
}

// addBinary handles x - y + k op 0 for non-Eq operators.
func (s *System) addBinary(uf *unionFind, con Constraint) {
	x, y, k := binaryParts(con.E)
	rx, ox := uf.find(x)
	ry, oy := uf.find(y)
	// val(x)-val(y)+k = val(rx)+ox-val(ry)-oy+k op 0
	kk := ox - oy + k
	if rx == ry {
		// constant: kk op 0
		if !(Constraint{E: ConstExpr(kk), Op: con.Op}).Holds(nil) {
			s.Feasible = false
		}
		return
	}
	switch con.Op {
	case ir.CmpNe:
		// val(rx) != val(ry) - kk
		s.Neqs = append(s.Neqs, Neq{A: rx, B: ry, C: -kk})
	case ir.CmpLe:
		s.Diffs = append(s.Diffs, Diff{A: rx, B: ry, C: -kk})
	case ir.CmpLt:
		s.Diffs = append(s.Diffs, Diff{A: rx, B: ry, C: -kk - 1})
	case ir.CmpGe:
		s.Diffs = append(s.Diffs, Diff{A: ry, B: rx, C: kk})
	case ir.CmpGt:
		s.Diffs = append(s.Diffs, Diff{A: ry, B: rx, C: kk - 1})
	case ir.CmpEq:
		// Handled in pass 1; defensive fallback.
		if !uf.union(x, y, -k) {
			s.Feasible = false
		}
	}
}

func (s *System) addHole(r Var, v uint64) {
	for _, h := range s.Holes[r] {
		if h == v {
			return
		}
	}
	s.Holes[r] = append(s.Holes[r], v)
	sort.Slice(s.Holes[r], func(i, j int) bool { return s.Holes[r][i] < s.Holes[r][j] })
}

func rewriteOnRoots(uf *unionFind, con Constraint) Constraint {
	out := LinExpr{K: con.E.K}
	for _, t := range con.E.Terms {
		r, off := uf.find(t.Var)
		out.Terms = append(out.Terms, Term{Var: r, Coef: t.Coef})
		out.K += t.Coef * off
	}
	return Constraint{E: out.canon(), Op: con.Op}
}

// propagate tightens root intervals through the difference constraints until
// a fixpoint (bounded by the number of constraints to guarantee
// termination on negative cycles, which are reported as infeasible).
func (s *System) propagate() {
	if !s.Feasible {
		return
	}
	maxRounds := len(s.Diffs) + len(s.Roots) + 1
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, d := range s.Diffs {
			a := s.RootIv[d.A]
			b := s.RootIv[d.B]
			// val(a) <= val(b) + C  =>  hi(a) <= hi(b)+C, lo(b) >= lo(a)-C.
			// Bounds above MaxInt64 saturate: a saturated hi(b) or hi(b)+C
			// tightens nothing, and a saturated lo(a) only weakens lo(b).
			if b.Hi <= math.MaxInt64 {
				hiLimit := satAdd(int64(b.Hi), d.C)
				if hiLimit < 0 {
					s.Feasible = false
					return
				}
				if hiLimit < math.MaxInt64 && uint64(hiLimit) < a.Hi {
					a.Hi = uint64(hiLimit)
					changed = true
				}
			}
			loLimit := satAdd(satInt(a.Lo), -d.C)
			if loLimit > 0 && uint64(loLimit) > b.Lo {
				b.Lo = uint64(loLimit)
				changed = true
			}
			s.RootIv[d.A] = a
			s.RootIv[d.B] = b
			if a.Empty() || b.Empty() {
				s.Feasible = false
				return
			}
		}
		if !changed {
			break
		}
		if round == maxRounds-1 {
			// Still changing after |V|+|E| rounds: negative cycle.
			s.Feasible = false
			return
		}
	}
	for _, iv := range s.RootIv {
		if iv.Empty() {
			s.Feasible = false
			return
		}
	}
	// Disequalities on identical roots.
	for _, n := range s.Neqs {
		if n.A == n.B && n.C == 0 {
			s.Feasible = false
			return
		}
	}
	// Singleton intervals fully consumed by holes.
	for r, iv := range s.RootIv {
		holes := s.Holes[r]
		if len(holes) == 0 {
			continue
		}
		if iv.Size() <= float64(len(holes)) {
			free := iv.Size()
			for _, h := range holes {
				if iv.Contains(h) {
					free--
				}
			}
			if free <= 0 {
				s.Feasible = false
				return
			}
		}
	}
}

// satInt converts a bound to int64, saturating at MaxInt64.
func satInt(u uint64) int64 {
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

func satAdd(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return int64(^uint64(0) >> 1)
	}
	if b < 0 && s > a {
		return -int64(^uint64(0)>>1) - 1
	}
	return s
}

// RootOf returns the class root and offset of a variable in the system
// (identity for variables the system never saw).
func (s *System) RootOf(v Var) (Var, int64) {
	for r, ms := range s.Members {
		for _, m := range ms {
			if m.Var == v {
				return r, m.Off
			}
		}
	}
	return v, 0
}
