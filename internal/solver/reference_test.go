package solver

import (
	"math"
	"sort"

	"repro/internal/ir"
)

// This file keeps the map-based normalization that the index-based kernel
// (norm) replaced, as the reference FuzzBuildMatchesReference compares
// Build, Feasible and FeasibleFrom against. It is the old code with
// its names prefixed by ref; besides the constraint types it shares only
// classify, binaryParts, satInt and satAdd with the package, and the
// operator swap, ir.CmpOp.Swap.

type refUnionFind struct {
	parent map[Var]Var
	off    map[Var]int64 // val(v) = val(parent[v]) + off[v]
}

func newRefUnionFind() *refUnionFind {
	return &refUnionFind{parent: map[Var]Var{}, off: map[Var]int64{}}
}

// find returns the root of v and the offset such that val(v) = val(root)+off.
func (u *refUnionFind) find(v Var) (Var, int64) {
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
func (u *refUnionFind) union(a, b Var, k int64) bool {
	ra, oa := u.find(a)
	rb, ob := u.find(b)
	if ra == rb {
		return oa == ob+k
	}
	u.parent[ra] = rb
	u.off[ra] = ob + k - oa
	return true
}

// refBuild is the map-based Build.
func refBuild(cs []Constraint, space *Space) *System {
	sys := &System{
		Space:    space,
		RootIv:   map[Var]Interval{},
		Members:  map[Var][]Member{},
		Holes:    map[Var][]uint64{},
		Feasible: true,
	}
	uf := newRefUnionFind()
	vars := map[Var]bool{}
	for _, c := range cs {
		for _, v := range c.E.Vars() {
			vars[v] = true
			uf.find(v)
		}
	}

	var rest []Constraint
	for _, c := range cs {
		if c.Op == ir.CmpEq && classify(c.E) == kBinary {
			x, y, k := binaryParts(c.E)
			if !uf.union(x, y, -k) {
				sys.Feasible = false
			}
			continue
		}
		rest = append(rest, c)
	}

	var allVars []Var
	for v := range vars {
		allVars = append(allVars, v)
	}
	sort.Slice(allVars, func(i, j int) bool { return allVars[i].Less(allVars[j]) })
	for _, v := range allVars {
		r, off := uf.find(v)
		sys.Members[r] = append(sys.Members[r], Member{Var: v, Off: off})
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

	for _, c := range rest {
		switch classify(c.E) {
		case kConst:
			if !c.Holds(nil) {
				sys.Feasible = false
			}
		case kUnary:
			refAddUnary(sys, uf, c)
		case kBinary:
			refAddBinary(sys, uf, c)
		default:
			sys.Generic = append(sys.Generic, refRewriteOnRoots(uf, c))
		}
	}

	refPropagate(sys)
	return sys
}

func refAddUnary(s *System, uf *refUnionFind, con Constraint) {
	t := con.E.Terms[0]
	r, off := uf.find(t.Var)
	c, k := t.Coef, con.E.K
	rhs := -(k + c*off)
	op := con.Op
	if c < 0 {
		c = -c
		rhs = -rhs
		op = op.Swap()
	}
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
			refAddHole(s, r, uint64(rhs/c))
		}
	case ir.CmpLe, ir.CmpLt:
		limit := rhs
		if op == ir.CmpLt {
			limit--
		}
		if limit < 0 {
			s.Feasible = false
			return
		}
		hi := uint64(limit / c)
		s.RootIv[r] = s.RootIv[r].Intersect(Interval{0, hi})
	case ir.CmpGe, ir.CmpGt:
		limit := rhs
		if op == ir.CmpGt {
			limit++
		}
		if limit <= 0 {
			return
		}
		lo := uint64((limit + c - 1) / c)
		iv := s.RootIv[r]
		if lo > iv.Lo {
			iv.Lo = lo
		}
		s.RootIv[r] = iv
	}
}

func refAddBinary(s *System, uf *refUnionFind, con Constraint) {
	x, y, k := binaryParts(con.E)
	rx, ox := uf.find(x)
	ry, oy := uf.find(y)
	kk := ox - oy + k
	if rx == ry {
		if !(Constraint{E: ConstExpr(kk), Op: con.Op}).Holds(nil) {
			s.Feasible = false
		}
		return
	}
	switch con.Op {
	case ir.CmpNe:
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
		if !uf.union(x, y, -k) {
			s.Feasible = false
		}
	}
}

func refAddHole(s *System, r Var, v uint64) {
	for _, h := range s.Holes[r] {
		if h == v {
			return
		}
	}
	s.Holes[r] = append(s.Holes[r], v)
	sort.Slice(s.Holes[r], func(i, j int) bool { return s.Holes[r][i] < s.Holes[r][j] })
}

func refRewriteOnRoots(uf *refUnionFind, con Constraint) Constraint {
	out := LinExpr{K: con.E.K}
	for _, t := range con.E.Terms {
		r, off := uf.find(t.Var)
		out.Terms = append(out.Terms, Term{Var: r, Coef: t.Coef})
		out.K += t.Coef * off
	}
	return Constraint{E: out.canon(), Op: con.Op}
}

func refPropagate(s *System) {
	if !s.Feasible {
		return
	}
	maxRounds := len(s.Diffs) + len(s.Roots) + 1
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, d := range s.Diffs {
			a := s.RootIv[d.A]
			b := s.RootIv[d.B]
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
	for _, n := range s.Neqs {
		if n.A == n.B && n.C == 0 {
			s.Feasible = false
			return
		}
	}
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

// refSliceFrom is the map-based sliceFrom.
func refSliceFrom(cs []Constraint, known int) []Constraint {
	vars := map[Var]bool{}
	for _, c := range cs[known:] {
		for _, t := range c.E.Terms {
			vars[t.Var] = true
		}
	}
	in := make([]bool, known)
	n := 0
	for grew := len(vars) > 0; grew; {
		grew = false
		for i := known - 1; i >= 0; i-- {
			if in[i] || !refTouches(cs[i], vars) {
				continue
			}
			in[i] = true
			n++
			grew = true
			for _, t := range cs[i].E.Terms {
				vars[t.Var] = true
			}
		}
	}
	out := make([]Constraint, 0, n+len(cs)-known)
	for i, ok := range in {
		if ok {
			out = append(out, cs[i])
		}
	}
	return append(out, cs[known:]...)
}

func refTouches(c Constraint, vars map[Var]bool) bool {
	for _, t := range c.E.Terms {
		if vars[t.Var] {
			return true
		}
	}
	return false
}
