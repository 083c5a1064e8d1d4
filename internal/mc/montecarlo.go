package mc

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/prob"
	"repro/internal/solver"
)

// monteCarlo estimates the probability of a component that is too entangled
// for closed-form counting. Each class root is drawn from its conditional
// weight function; the hit rate over the samples scales the product of the
// class masses. The RNG is derived deterministically from the counter seed
// and the component's constraints, so estimates are reproducible.
//
// The sample loop is allocation-free: root i of the component lives at
// index i of one assignment slice, and the constraints are compiled once
// onto those indices (see denseComp).
func (c *Counter) monteCarlo(sys *solver.System, comp component) prob.P {
	// Base: product of class masses (the probability of the "box" before
	// the coupling constraints).
	base := prob.One()
	type classInfo struct {
		segs []wseg
		cdf  dist.CDF
	}
	infos := make([]classInfo, 0, len(comp.roots))
	for _, r := range comp.roots {
		segs := punchHoles(c.classSegments(sys, r), sys.Holes[r])
		cum := make([]float64, len(segs))
		mass := 0.0
		for i, s := range segs {
			mass += s.dens * (float64(s.hi-s.lo) + 1)
			cum[i] = mass
		}
		if mass <= 0 {
			return prob.Zero()
		}
		infos = append(infos, classInfo{segs: segs, cdf: dist.NewCDF(cum)})
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
	dc := compileComp(comp)
	val := make([]uint64, len(comp.roots))
	hits := 0
	for i := 0; i < samples; i++ {
		for j := range infos {
			val[j] = sampleSegs(rng, infos[j].segs, &infos[j].cdf)
		}
		if dc.satisfies(val) {
			hits++
		}
	}
	rate := float64(hits) / float64(samples)
	return base.Mul(prob.FromFloat(rate))
}

// sampleSegs draws a root value: the first segment whose running mass
// reaches u (the last one if rounding leaves u above them all), then a
// value inside it. cdf's total is the class mass: the same additions in
// the same order.
func sampleSegs(rng *rand.Rand, segs []wseg, cdf *dist.CDF) uint64 {
	s := segs[cdf.Index(rng.Float64()*cdf.Total())]
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

// denseComp is a component's coupling constraints compiled onto root
// indices: val[i] is the value of comp.roots[i].
type denseComp struct {
	diffs   []denseDiff // val[a] − val[b] <= c
	neqs    []denseDiff // val[a] != val[b] + c
	generic []denseGeneric
}

type denseDiff struct {
	a, b int
	c    int64
}

// denseGeneric is k + Σ coef·val[idx] op 0.
type denseGeneric struct {
	terms []denseTerm
	k     int64
	op    ir.CmpOp
}

type denseTerm struct {
	idx  int
	coef int64
}

// compileComp indexes every constraint variable by its position in
// comp.roots. solver.Build rewrites diffs, neqs and generic residue onto
// class roots, and components unions every root a constraint mentions into
// the constraint's component, so each variable has an index.
func compileComp(comp component) denseComp {
	idx := make(map[solver.Var]int, len(comp.roots))
	for i, r := range comp.roots {
		idx[r] = i
	}
	at := func(v solver.Var) int {
		i, ok := idx[v]
		if !ok {
			panic(fmt.Sprintf("mc: %s is not a root of its component", v))
		}
		return i
	}
	dc := denseComp{
		diffs:   make([]denseDiff, len(comp.diffs)),
		neqs:    make([]denseDiff, len(comp.neqs)),
		generic: make([]denseGeneric, len(comp.generic)),
	}
	for i, d := range comp.diffs {
		dc.diffs[i] = denseDiff{a: at(d.A), b: at(d.B), c: d.C}
	}
	for i, n := range comp.neqs {
		dc.neqs[i] = denseDiff{a: at(n.A), b: at(n.B), c: n.C}
	}
	for i, g := range comp.generic {
		terms := make([]denseTerm, len(g.E.Terms))
		for j, t := range g.E.Terms {
			terms[j] = denseTerm{idx: at(t.Var), coef: t.Coef}
		}
		dc.generic[i] = denseGeneric{terms: terms, k: g.E.K, op: g.Op}
	}
	return dc
}

// satisfies evaluates the constraints in the order and with the integer
// arithmetic of solver.Constraint.Holds.
func (dc *denseComp) satisfies(val []uint64) bool {
	for _, d := range dc.diffs {
		if int64(val[d.a])-int64(val[d.b]) > d.c {
			return false
		}
	}
	for _, n := range dc.neqs {
		if int64(val[n.a]) == int64(val[n.b])+n.c {
			return false
		}
	}
	for i := range dc.generic {
		if !dc.generic[i].holds(val) {
			return false
		}
	}
	return true
}

func (g *denseGeneric) holds(val []uint64) bool {
	s := g.k
	for _, t := range g.terms {
		s += t.coef * int64(val[t.idx])
	}
	return solver.CmpZero(g.op, s)
}
