package solver

import (
	"math"
	"slices"
	"strings"

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

// norm is the normalization state of one conjunction over dense local
// variable indices: variable i is vars[i], and vars is sorted by Var.Less,
// so index order is Var order. The union-find links, root intervals,
// difference constraints, disequalities and holes all name variables by
// index and live in slices; normBuf gives those slices inline backing
// arrays, so normalizing a small system allocates nothing. run is the one
// normalization and propagation procedure: Feasible and FeasibleFrom read
// its verdict, and Build exports its state as a System.
type norm struct {
	vars    []Var
	nodes   []node
	diffs   []rootRel // val(a) - val(b) <= c
	neqs    []rootRel // val(a) != val(b) + c
	holes   []hole    // sorted by root, then value; distinct
	generic []int     // indices into cs of the generic residue
	roots   int
	// feasible is false once normalization or propagation proved the
	// conjunction unsatisfiable.
	feasible bool
}

// node is one variable's union-find entry: val(v) = val(parent) + off. At a
// root (parent is the variable itself) iv is the class's interval.
type node struct {
	parent int
	off    int64
	iv     Interval
}

// rootRel relates two class roots by a constant.
type rootRel struct {
	a, b int
	c    int64
}

// hole excludes the value v of class root r.
type hole struct {
	r int
	v uint64
}

// normBuf holds a norm's inline backing arrays. It lives in the caller's
// frame: run takes and returns its norm by value and appends only in its
// own body, so the arrays do not escape.
type normBuf struct {
	vars    [8]Var
	nodes   [8]node
	diffs   [8]rootRel
	neqs    [4]rootRel
	holes   [4]hole
	generic [4]int
}

func (b *normBuf) norm() norm {
	return norm{vars: b.vars[:0], nodes: b.nodes[:0], diffs: b.diffs[:0], neqs: b.neqs[:0],
		holes: b.holes[:0], generic: b.generic[:0]}
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
	var buf normBuf
	n := buf.norm().run(cs, space)
	return n.export(cs, space)
}

// run normalizes cs into n and propagates. It counts one build.
func (n norm) run(cs []Constraint, space *Space) norm {
	metrics.builds.Add(1)
	n.feasible = true
	for _, c := range cs {
		for _, t := range c.E.Terms {
			if i, found := slices.BinarySearchFunc(n.vars, t.Var, cmpVar); !found {
				n.vars = slices.Insert(n.vars, i, t.Var)
			}
		}
	}
	for i := range n.vars {
		n.nodes = append(n.nodes, node{parent: i, iv: Interval{0, math.MaxUint64}})
	}

	// Pass 1: equalities between two unit-coefficient variables define the
	// classes.
	for _, c := range cs {
		if c.Op == ir.CmpEq && classify(c.E) == kBinary {
			// x - y + k == 0  =>  val(x) = val(y) - k.
			x, y, k := binaryParts(c.E)
			if !n.union(n.index(x), n.index(y), -k) {
				n.feasible = false
			}
		}
	}

	// Root intervals: val(v) = val(r) + off and val(v) ∈ Domain(v), so
	// val(r) ∈ Domain(v) - off for every member v.
	for i, v := range n.vars {
		r, off := n.find(i)
		if r == i {
			n.roots++
		}
		n.nodes[r].iv = n.nodes[r].iv.Intersect(space.Domain(v).Shift(-off))
	}

	// Pass 2: everything else, rewritten onto roots.
	for i, c := range cs {
		switch classify(c.E) {
		case kConst:
			if !CmpZero(c.Op, c.E.K) {
				n.feasible = false
			}
		case kUnary:
			if h, ok := n.unary(c); ok {
				n.holes = addHole(n.holes, h)
			}
		case kBinary:
			if c.Op == ir.CmpEq {
				continue // pass 1
			}
			if rel, ok := n.binary(c); ok && c.Op == ir.CmpNe {
				n.neqs = append(n.neqs, rel)
			} else if ok {
				n.diffs = append(n.diffs, rel)
			}
		default:
			n.generic = append(n.generic, i)
		}
	}

	n.propagate()
	return n
}

// cmpVar orders variables as Var.Less does.
func cmpVar(a, b Var) int {
	switch {
	case a.Pkt < b.Pkt:
		return -1
	case a.Pkt > b.Pkt:
		return 1
	}
	return strings.Compare(a.Field, b.Field)
}

// index returns the local index of a variable of the system.
func (n *norm) index(v Var) int {
	i, _ := slices.BinarySearchFunc(n.vars, v, cmpVar)
	return i
}

// find returns the root of i and the offset such that val(i) = val(root)+off.
func (n *norm) find(i int) (int, int64) {
	p := n.nodes[i].parent
	if p == i {
		return i, 0
	}
	root, poff := n.find(p)
	n.nodes[i].parent = root
	n.nodes[i].off += poff
	return root, n.nodes[i].off
}

// union merges so that val(a) = val(b) + k. Returns false on contradiction.
func (n *norm) union(a, b int, k int64) bool {
	ra, oa := n.find(a) // val(a) = val(ra) + oa
	rb, ob := n.find(b) // val(b) = val(rb) + ob
	if ra == rb {
		// val(ra)+oa = val(ra)+ob+k  =>  oa == ob+k
		return oa == ob+k
	}
	// Attach ra under rb: val(ra) = val(a) - oa = val(b)+k-oa = val(rb)+ob+k-oa.
	n.nodes[ra].parent = rb
	n.nodes[ra].off = ob + k - oa
	return true
}

func binaryParts(e LinExpr) (x, y Var, k int64) {
	a, b := e.Terms[0], e.Terms[1]
	if a.Coef == 1 {
		return a.Var, b.Var, e.K // x - y + k
	}
	return b.Var, a.Var, e.K // (b is +1)
}

// unary applies c*x + k op 0 to x's root interval. For a disequality it
// returns the hole to punch instead.
func (n *norm) unary(con Constraint) (hole, bool) {
	t := con.E.Terms[0]
	r, off := n.find(n.index(t.Var))
	iv := &n.nodes[r].iv
	c, k := t.Coef, con.E.K
	// c*(val(r)+off) + k op 0  =>  c*val(r) op -(k + c*off)
	rhs := -(k + c*off)
	op := con.Op
	if c < 0 {
		c = -c
		rhs = -rhs
		op = op.Swap()
	}
	// Now: c*val(r) op rhs with c > 0.
	switch op {
	case ir.CmpEq:
		if rhs < 0 || rhs%c != 0 {
			n.feasible = false
			break
		}
		v := uint64(rhs / c)
		*iv = iv.Intersect(Interval{v, v})
	case ir.CmpNe:
		if rhs >= 0 && rhs%c == 0 {
			return hole{r, uint64(rhs / c)}, true
		}
	case ir.CmpLe, ir.CmpLt:
		// c*v <= rhs (or < rhs): v <= floor(rhs'/c)
		limit := rhs
		if op == ir.CmpLt {
			limit--
		}
		if limit < 0 {
			n.feasible = false
			break
		}
		*iv = iv.Intersect(Interval{0, uint64(limit / c)}) // floor for non-negative
	case ir.CmpGe, ir.CmpGt:
		limit := rhs
		if op == ir.CmpGt {
			limit++
		}
		if limit <= 0 {
			break // always true for unsigned v
		}
		if lo := uint64((limit + c - 1) / c); lo > iv.Lo { // ceil
			iv.Lo = lo
		}
	}
	return hole{}, false
}

// binary rewrites x - y + k op 0 (op not Eq) onto roots: as a difference
// constraint, or as a disequality for Ne. It reports false when both sides
// share a root, where the constraint is a constant that it checks itself.
func (n *norm) binary(con Constraint) (rootRel, bool) {
	x, y, k := binaryParts(con.E)
	rx, ox := n.find(n.index(x))
	ry, oy := n.find(n.index(y))
	// val(x)-val(y)+k = val(rx)+ox-val(ry)-oy+k op 0
	kk := ox - oy + k
	if rx == ry {
		if !CmpZero(con.Op, kk) {
			n.feasible = false
		}
		return rootRel{}, false
	}
	switch con.Op {
	case ir.CmpNe, ir.CmpLe: // val(rx) != val(ry) - kk, or val(rx) - val(ry) <= -kk
		return rootRel{rx, ry, -kk}, true
	case ir.CmpLt:
		return rootRel{rx, ry, -kk - 1}, true
	case ir.CmpGe:
		return rootRel{ry, rx, kk}, true
	default: // ir.CmpGt
		return rootRel{ry, rx, kk - 1}, true
	}
}

// addHole inserts h into the sorted, distinct holes.
func addHole(holes []hole, h hole) []hole {
	i := 0
	for i < len(holes) && (holes[i].r < h.r || holes[i].r == h.r && holes[i].v < h.v) {
		i++
	}
	if i < len(holes) && holes[i] == h {
		return holes
	}
	return slices.Insert(holes, i, h)
}

// propagate tightens root intervals through the difference constraints until
// a fixpoint (bounded by the number of constraints to guarantee
// termination on negative cycles, which are reported as infeasible).
func (n *norm) propagate() {
	if !n.feasible {
		return
	}
	maxRounds := len(n.diffs) + n.roots + 1
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, d := range n.diffs {
			a := n.nodes[d.a].iv
			b := n.nodes[d.b].iv
			// val(a) <= val(b) + C  =>  hi(a) <= hi(b)+C, lo(b) >= lo(a)-C.
			// Bounds above MaxInt64 saturate: a saturated hi(b) or hi(b)+C
			// tightens nothing, and a saturated lo(a) only weakens lo(b).
			if b.Hi <= math.MaxInt64 {
				hiLimit := satAdd(int64(b.Hi), d.c)
				if hiLimit < 0 {
					n.feasible = false
					return
				}
				if hiLimit < math.MaxInt64 && uint64(hiLimit) < a.Hi {
					a.Hi = uint64(hiLimit)
					changed = true
				}
			}
			loLimit := satAdd(satInt(a.Lo), -d.c)
			if loLimit > 0 && uint64(loLimit) > b.Lo {
				b.Lo = uint64(loLimit)
				changed = true
			}
			n.nodes[d.a].iv = a
			n.nodes[d.b].iv = b
			if a.Empty() || b.Empty() {
				n.feasible = false
				return
			}
		}
		if !changed {
			break
		}
		if round == maxRounds-1 {
			// Still changing after |V|+|E| rounds: negative cycle.
			n.feasible = false
			return
		}
	}
	for i, nd := range n.nodes {
		if nd.parent == i && nd.iv.Empty() {
			n.feasible = false
			return
		}
	}
	// Singleton intervals fully consumed by holes. A root's holes are
	// adjacent in the sorted list.
	for i := 0; i < len(n.holes); {
		r, j := n.holes[i].r, i+1
		for j < len(n.holes) && n.holes[j].r == r {
			j++
		}
		iv := n.nodes[r].iv
		if iv.Size() <= float64(j-i) {
			free := iv.Size()
			for _, h := range n.holes[i:j] {
				if iv.Contains(h.v) {
					free--
				}
			}
			if free <= 0 {
				n.feasible = false
				return
			}
		}
		i = j
	}
}

// export builds the System of a run over cs: roots and members in Var
// order, diffs and disequalities in constraint order, each root's holes
// ascending, and the generic residue rewritten onto roots.
func (n *norm) export(cs []Constraint, space *Space) *System {
	sys := &System{
		Space:    space,
		RootIv:   make(map[Var]Interval, n.roots),
		Members:  make(map[Var][]Member, n.roots),
		Holes:    map[Var][]uint64{},
		Feasible: n.feasible,
	}
	for i, v := range n.vars {
		r, off := n.find(i)
		if r == i {
			sys.Roots = append(sys.Roots, v)
			sys.RootIv[v] = n.nodes[i].iv
		}
		sys.Members[n.vars[r]] = append(sys.Members[n.vars[r]], Member{Var: v, Off: off})
	}
	for _, d := range n.diffs {
		sys.Diffs = append(sys.Diffs, Diff{A: n.vars[d.a], B: n.vars[d.b], C: d.c})
	}
	for _, d := range n.neqs {
		sys.Neqs = append(sys.Neqs, Neq{A: n.vars[d.a], B: n.vars[d.b], C: d.c})
	}
	for _, h := range n.holes {
		r := n.vars[h.r]
		sys.Holes[r] = append(sys.Holes[r], h.v)
	}
	for _, i := range n.generic {
		sys.Generic = append(sys.Generic, n.rewriteOnRoots(cs[i]))
	}
	return sys
}

func (n *norm) rewriteOnRoots(con Constraint) Constraint {
	out := LinExpr{K: con.E.K}
	for _, t := range con.E.Terms {
		r, off := n.find(n.index(t.Var))
		out.Terms = append(out.Terms, Term{Var: n.vars[r], Coef: t.Coef})
		out.K += t.Coef * off
	}
	return Constraint{E: out.canon(), Op: con.Op}
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
