package mc

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/prob"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// fuzzCmp is one decoded comparison: lhs op rhs, where lhs is field x or y
// and rhs is either the constant k or the other field plus k.
type fuzzCmp struct {
	op     ir.CmpOp
	lhsY   bool
	rhsVar bool
	k      int64
}

var fuzzOps = [...]ir.CmpOp{ir.CmpLt, ir.CmpLe, ir.CmpEq, ir.CmpNe}

// decodeFuzzConj turns fuzz bytes into two field widths (2–6 bits) and a
// conjunction of 1–4 comparisons. Constants range one past each end of
// the field's domain; offsets against the other field range over ±4.
func decodeFuzzConj(data []byte) (wx, wy int, cmps []fuzzCmp) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	wx, wy = 2+at(0)%5, 2+at(1)%5
	n := 1 + at(2)%4
	for i := 0; i < n; i++ {
		b, kb := at(3+2*i), at(4+2*i)
		c := fuzzCmp{op: fuzzOps[b%4], lhsY: b&4 != 0, rhsVar: b&8 != 0}
		w := wx
		if c.lhsY {
			w = wy
		}
		if c.rhsVar {
			c.k = int64(kb%9) - 4
		} else {
			c.k = int64(kb%((1<<w)+2)) - 1
		}
		cmps = append(cmps, c)
	}
	return wx, wy, cmps
}

func (c fuzzCmp) holds(x, y int64) bool {
	lhs, other := x, y
	if c.lhsY {
		lhs, other = y, x
	}
	rhs := c.k
	if c.rhsVar {
		rhs += other
	}
	switch c.op {
	case ir.CmpLt:
		return lhs < rhs
	case ir.CmpLe:
		return lhs <= rhs
	case ir.CmpEq:
		return lhs == rhs
	default:
		return lhs != rhs
	}
}

func (c fuzzCmp) constraint() solver.Constraint {
	x, y := solver.VarExpr(v(0, "x")), solver.VarExpr(v(0, "y"))
	lhs, other := x, y
	if c.lhsY {
		lhs, other = y, x
	}
	rhs := solver.ConstExpr(c.k)
	if c.rhsVar {
		rhs = other.Add(rhs)
	}
	return solver.NewCmp(c.op, lhs, rhs)
}

// FuzzExactCountMatchesEnumeration checks the exact counter against brute
// force: whenever ProbOf answers without a Monte-Carlo fallback, its
// probability must equal the satisfying fraction of the whole domain.
func FuzzExactCountMatchesEnumeration(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3})                    // 2 bits: x < 2
	f.Add([]byte{4, 4, 1, 9, 4, 6, 4})              // 6 bits: x <= y, y == 3
	f.Add([]byte{2, 3, 3, 8, 5, 10, 2, 1, 7, 7, 0}) // x < y+1, x == y-2, x <= 6, y != -1
	f.Add([]byte{1, 4, 2, 13, 8, 2, 1, 11, 0})      // y <= x+4, x == 0, x != y-4
	f.Fuzz(func(t *testing.T, data []byte) {
		wx, wy, cmps := decodeFuzzConj(data)
		cs := make([]solver.Constraint, len(cmps))
		for i, c := range cmps {
			cs[i] = c.constraint()
		}
		c := NewCounter(solver.NewSpace([]ir.Field{{Name: "x", Bits: wx}, {Name: "y", Bits: wy}}), nil)
		got := c.ProbOf(cs).Float()
		if c.Stats().MCFallbacks > 0 {
			return // estimated, not counted: nothing exact to compare
		}
		n := 0
		for x := int64(0); x < 1<<wx; x++ {
			for y := int64(0); y < 1<<wy; y++ {
				ok := true
				for _, cm := range cmps {
					if !cm.holds(x, y) {
						ok = false
						break
					}
				}
				if ok {
					n++
				}
			}
		}
		want := float64(n) / float64(int64(1)<<(wx+wy))
		if !testutil.ApproxEqual(got, want, 1e-12, 1e-9) {
			t.Fatalf("x:%d bits, y:%d bits, %v: ProbOf = %v, enumeration = %v (%d pairs)",
				wx, wy, cs, got, want, n)
		}
	})
}

// refMonteCarlo is the map-based estimator that monteCarlo replaced, kept as
// the reference its dense kernel must match bit for bit: the same class
// tables, seed and draws, but a front-to-back segment scan, and every sample
// written into a map[solver.Var]uint64 and checked by refSatisfies.
func refMonteCarlo(c *Counter, sys *solver.System, comp component) prob.P {
	base := prob.One()
	type classInfo struct {
		root solver.Var
		segs []wseg
		mass float64
		cum  []float64
	}
	infos := make([]classInfo, 0, len(comp.roots))
	for _, r := range comp.roots {
		segs := punchHoles(c.classSegments(sys, r), sys.Holes[r])
		mass := 0.0
		for _, s := range segs {
			mass += s.dens * (float64(s.hi-s.lo) + 1)
		}
		if mass <= 0 {
			return prob.Zero()
		}
		cum := make([]float64, len(segs))
		acc := 0.0
		for i, s := range segs {
			acc += s.dens * (float64(s.hi-s.lo) + 1)
			cum[i] = acc
		}
		infos = append(infos, classInfo{root: r, segs: segs, mass: mass, cum: cum})
		base = base.Mul(prob.FromFloat(mass))
	}
	if base.IsZero() {
		return prob.Zero()
	}

	h := fnv.New64a()
	for _, d := range comp.diffs {
		h.Write([]byte(d.A.String()))
		h.Write([]byte(d.B.String()))
	}
	for _, g := range comp.generic {
		h.Write([]byte(g.String()))
	}
	for _, r := range comp.roots {
		h.Write([]byte(r.String()))
	}
	rng := rand.New(rand.NewSource(c.Seed ^ int64(h.Sum64())))

	samples := c.MCSamples
	if samples <= 0 {
		samples = 20000
	}
	hits := 0
	asn := map[solver.Var]uint64{}
	for i := 0; i < samples; i++ {
		for _, ci := range infos {
			asn[ci.root] = refSampleSegs(rng, ci.segs, ci.cum, ci.mass)
		}
		if refSatisfies(comp, asn) {
			hits++
		}
	}
	rate := float64(hits) / float64(samples)
	return base.Mul(prob.FromFloat(rate))
}

func refSampleSegs(rng *rand.Rand, segs []wseg, cum []float64, mass float64) uint64 {
	u := rng.Float64() * mass
	idx := len(segs) - 1
	for i, cm := range cum {
		if u <= cm {
			idx = i
			break
		}
	}
	s := segs[idx]
	span := s.hi - s.lo
	if span == ^uint64(0) {
		return rng.Uint64()
	}
	lim := span + 1
	if lim > 1<<62 {
		lim = 1 << 62
	}
	return s.lo + uint64(rng.Int63n(int64(lim)))
}

func refSatisfies(comp component, asn map[solver.Var]uint64) bool {
	for _, d := range comp.diffs {
		if int64(asn[d.A])-int64(asn[d.B]) > d.C {
			return false
		}
	}
	for _, n := range comp.neqs {
		if int64(asn[n.A]) == int64(asn[n.B])+n.C {
			return false
		}
	}
	for _, g := range comp.generic {
		if !g.Holds(asn) {
			return false
		}
	}
	return true
}

var allOps = [...]ir.CmpOp{ir.CmpEq, ir.CmpNe, ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe}

// decodeFuzzComp turns fuzz bytes into 3–5 fields f0..f4 of 2–6 bits, a
// skewed marginal per field (three pieces of unequal, possibly zero, mass)
// and a conjunction: a chain of diff, disequality or generic links that
// puts every field in one component, then up to four extras — holes,
// diffs, disequalities and three-field generic sums.
func decodeFuzzComp(data []byte) ([]ir.Field, *dist.Profile, []solver.Constraint) {
	pos := 0
	next := func() int {
		b := 0
		if pos < len(data) {
			b = int(data[pos])
		}
		pos++
		return b
	}
	n := 3 + next()%3
	fields := make([]ir.Field, n)
	vars := make([]solver.LinExpr, n)
	maxv := make([]int64, n)
	oracle := dist.NewProfile()
	for i := range fields {
		name := fmt.Sprintf("f%d", i)
		w := 2 + next()%5
		fields[i] = ir.Field{Name: name, Bits: w}
		vars[i] = solver.VarExpr(v(0, name))
		maxv[i] = 1<<w - 1
		c1 := uint64(next()) % uint64(maxv[i])
		c2 := c1 + 1 + uint64(next())%(uint64(maxv[i])-c1)
		pieces := []dist.Piece{{Lo: 0, Hi: c1, Mass: float64(next() % 4)}, {Lo: c1 + 1, Hi: c2, Mass: 1 + float64(next()%8)}}
		if c2 < uint64(maxv[i]) {
			pieces = append(pieces, dist.Piece{Lo: c2 + 1, Hi: uint64(maxv[i]), Mass: float64(next() % 16)})
		}
		oracle.SetField(name, dist.MustFromPieces(pieces))
	}
	small := func() solver.LinExpr { return solver.ConstExpr(int64(next()%9) - 4) }
	var cs []solver.Constraint
	for i := 1; i < n; i++ {
		x, y := vars[i-1], vars[i]
		switch k := next(); k % 4 {
		case 0:
			cs = append(cs, solver.NewCmp(ir.CmpLe, x, y.Add(small())))
		case 1:
			cs = append(cs, solver.NewCmp(ir.CmpNe, x, y.Add(small())))
		case 2:
			cs = append(cs, solver.NewCmp(allOps[k/4%6], x.Add(y), solver.ConstExpr(int64(next())%(maxv[i-1]+maxv[i]+2))))
		default:
			cs = append(cs, solver.NewCmp(allOps[k/4%6], x.Scale(2), y.Add(small())))
		}
	}
	for extra := next() % 5; extra > 0; extra-- {
		a, b, c := vars[next()%n], vars[next()%n], vars[next()%n]
		switch k := next(); k % 4 {
		case 0:
			cs = append(cs, solver.NewCmp(ir.CmpNe, a, solver.ConstExpr(int64(next()%8))))
		case 1:
			cs = append(cs, solver.NewCmp(ir.CmpLt, a, b.Add(small())))
		case 2:
			cs = append(cs, solver.NewCmp(ir.CmpNe, a, b.Add(small())))
		default:
			cs = append(cs, solver.NewCmp(allOps[k/4%6], a.Add(b), c.Add(small())))
		}
	}
	return fields, oracle, cs
}

// FuzzMonteCarloMatchesReference checks the dense Monte-Carlo kernel
// against the map-based reference: on every component of a fuzzed
// conjunction both must return the same prob.P, bit for bit.
func FuzzMonteCarloMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{2, 4, 9, 1, 3, 7, 3, 200, 17, 2, 5, 4, 0, 8, 40, 1, 99, 6, 1, 2, 3, 4, 1, 2, 3, 5, 7, 11, 13, 17, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 5, 2, 6, 3, 7, 4, 0, 1, 2, 4, 0, 2, 0, 3, 1, 2, 7, 3})
	f.Add([]byte{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151})
	f.Fuzz(func(t *testing.T, data []byte) {
		fields, oracle, cs := decodeFuzzComp(data)
		c := NewCounter(solver.NewSpace(fields), oracle)
		c.MCSamples = 300
		if len(data) > 0 {
			c.Seed = int64(data[len(data)-1])
		}
		sys := solver.Build(cs, c.Space)
		if !sys.Feasible {
			return
		}
		for _, comp := range components(sys) {
			got, want := c.monteCarlo(sys, comp), refMonteCarlo(c, sys, comp)
			if got != want {
				t.Fatalf("%v: component %v: dense %v, reference %v", cs, comp.roots, got.Float(), want.Float())
			}
		}
	})
}
