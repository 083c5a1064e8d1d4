// Package mc implements weighted model counting over the normalized
// constraint systems produced by internal/solver. It fills the role LattE
// plays in the paper's prototype: given a path condition, it computes the
// probability mass of the satisfying header-space polytope under a traffic
// profile (or the uniform distribution when no profile is supplied).
//
// Constraint systems decompose into independent components. Single-class
// components and two-class components (connected by difference and
// disequality constraints) are counted exactly in closed form; larger or
// generic-residue components fall back to a deterministic Monte-Carlo
// estimator, mirroring how approximate #SMT solvers handle theories exact
// counters cannot.
//
// A Counter memoizes at two levels: whole conjunctions, and the components
// they split into. Sibling paths share most of their components, so each
// distinct component is counted once per run. A component's key covers
// everything its count reads, so a hit returns the bits the count would.
package mc

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/prob"
	"repro/internal/solver"
)

// Stats instruments the counter for the Figure 7 experiments.
type Stats struct {
	Queries       int // total ProbOf calls
	CacheHits     int
	ComponentHits int // components served from the component memo
	ExactClasses  int // components counted in closed form
	ExactPairs    int
	MCFallbacks   int // components estimated by Monte Carlo
}

// CacheHitRate returns the fraction of queries served from the memo cache.
func (s Stats) CacheHitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Queries)
}

// Metrics flattens the stats into the registry/report namespace.
func (s Stats) Metrics() map[string]float64 {
	return map[string]float64{
		"queries":        float64(s.Queries),
		"cache_hits":     float64(s.CacheHits),
		"cache_hit_rate": s.CacheHitRate(),
		"component_hits": float64(s.ComponentHits),
		"exact_classes":  float64(s.ExactClasses),
		"exact_pairs":    float64(s.ExactPairs),
		"mc_fallbacks":   float64(s.MCFallbacks),
	}
}

// Counter computes path-condition probabilities. It is safe for concurrent
// use: both memo caches (conjunctions and components) are sharded with
// per-shard mutexes and single-flight semantics (two workers never
// redundantly count the same conjunction or component — the second blocks
// until the first publishes), and the instrumentation counters are atomic.
// The tuning fields must be set before the first ProbOf call.
type Counter struct {
	Space  *solver.Space
	Oracle dist.Oracle

	// MCSamples bounds Monte-Carlo fallback sample counts (default 20000).
	MCSamples int
	// Seed makes the Monte-Carlo fallback deterministic.
	Seed int64
	// DisableCache turns off memoization at both levels (for the cache
	// ablation and the uncached count probes).
	DisableCache bool
	// ForceMC forces the Monte-Carlo path even for exactly countable
	// components (for the exact-vs-MC ablation).
	ForceMC bool

	cache *shardedCache // conjunction memo
	comps *shardedCache // component memo
	stats counterStats
}

// counterStats is the atomic backing store for Stats snapshots.
type counterStats struct {
	queries       atomic.Int64
	cacheHits     atomic.Int64
	componentHits atomic.Int64
	exactClasses  atomic.Int64
	exactPairs    atomic.Int64
	mcFallbacks   atomic.Int64
}

// NewCounter builds a counter over the given variable space and oracle.
// A nil oracle means uniform header space.
func NewCounter(space *solver.Space, oracle dist.Oracle) *Counter {
	if oracle == nil {
		oracle = &dist.UniformOracle{}
	}
	return &Counter{
		Space:     space,
		Oracle:    oracle,
		MCSamples: 20000,
		cache:     newShardedCache(),
		comps:     newShardedCache(),
	}
}

// Stats returns a snapshot of the counter's instrumentation counters.
func (c *Counter) Stats() Stats {
	return Stats{
		Queries:       int(c.stats.queries.Load()),
		CacheHits:     int(c.stats.cacheHits.Load()),
		ComponentHits: int(c.stats.componentHits.Load()),
		ExactClasses:  int(c.stats.exactClasses.Load()),
		ExactPairs:    int(c.stats.exactPairs.Load()),
		MCFallbacks:   int(c.stats.mcFallbacks.Load()),
	}
}

// CacheMetrics is the sharded-cache view on its own: shard count per
// level, resident conjunction and component entries, and how often a
// worker found a shard lock of either level held (the contention signal the
// obs registry and the run report expose).
func (c *Counter) CacheMetrics() map[string]float64 {
	m := map[string]float64{"cache_shards": float64(numShards)}
	if c.cache != nil {
		m["cache_entries"] = float64(c.cache.entries.Load())
		m["cache_shard_contention"] = float64(c.cache.contention.Load())
	}
	if c.comps != nil {
		m["cache_component_entries"] = float64(c.comps.entries.Load())
		m["cache_shard_contention"] += float64(c.comps.contention.Load())
	}
	return m
}

// Metrics extends Stats.Metrics with the sharded-cache view.
func (c *Counter) Metrics() map[string]float64 {
	m := c.Stats().Metrics()
	for k, v := range c.CacheMetrics() {
		m[k] = v
	}
	return m
}

// ProbOf returns the probability that a random packet sequence (fields
// drawn independently per the oracle's marginals) satisfies the
// conjunction. Concurrent callers with the same conjunction single-flight:
// one computes, the rest block on its result and count as cache hits.
func (c *Counter) ProbOf(cs []solver.Constraint) prob.P {
	c.stats.queries.Add(1)
	if c.DisableCache || c.cache == nil {
		return c.ProbOfSystem(solver.Build(cs, c.Space))
	}
	e, existed := c.cache.lookupOrClaim(cacheKey(cs))
	if existed {
		c.stats.cacheHits.Add(1)
		<-e.done
		return e.p
	}
	p := c.ProbOfSystem(solver.Build(cs, c.Space))
	c.cache.publish(e, p)
	return p
}

// ProbOfSystem counts an already-normalized system: the product of its
// components' probabilities, each served from the component memo when an
// earlier query of this counter already counted it.
func (c *Counter) ProbOfSystem(sys *solver.System) prob.P {
	if !sys.Feasible {
		return prob.Zero()
	}
	result := prob.One()
	for _, comp := range components(sys) {
		result = result.Mul(c.componentProb(sys, comp))
	}
	return result
}

// componentProb looks comp up in the component memo and counts it on a
// miss. The claim is published before the caller looks up its next
// component, so no goroutine waits while it holds an unpublished component
// claim, and a waiter on a conjunction holds no claim at all: the two
// levels cannot deadlock.
func (c *Counter) componentProb(sys *solver.System, comp component) prob.P {
	if c.DisableCache || c.comps == nil {
		return c.countComponent(sys, comp)
	}
	e, existed := c.comps.lookupOrClaim(componentKey(sys, &comp))
	if existed {
		c.stats.componentHits.Add(1)
		<-e.done
		return e.p
	}
	p := c.countComponent(sys, comp)
	c.comps.publish(e, p)
	return p
}

// countComponent counts one component with the cheapest kernel that
// applies.
func (c *Counter) countComponent(sys *solver.System, comp component) prob.P {
	switch {
	case c.ForceMC:
		c.stats.mcFallbacks.Add(1)
		return c.monteCarlo(sys, comp)
	case len(comp.roots) == 1 && len(comp.generic) == 0 && len(comp.diffs) == 0 && len(comp.neqs) == 0:
		c.stats.exactClasses.Add(1)
		return prob.FromFloat(c.classMass(sys, comp.roots[0]))
	case len(comp.roots) == 2 && len(comp.generic) == 0:
		c.stats.exactPairs.Add(1)
		return c.pairProb(sys, comp)
	default:
		c.stats.mcFallbacks.Add(1)
		return c.monteCarlo(sys, comp)
	}
}

// component groups roots linked by diffs, neqs, or generic constraints.
type component struct {
	roots   []solver.Var
	diffs   []solver.Diff
	neqs    []solver.Neq
	generic []solver.Constraint
}

func components(sys *solver.System) []component {
	idx := map[solver.Var]int{}
	for i, r := range sys.Roots {
		idx[r] = i
	}
	parent := make([]int, len(sys.Roots))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	for _, d := range sys.Diffs {
		union(idx[d.A], idx[d.B])
	}
	for _, n := range sys.Neqs {
		union(idx[n.A], idx[n.B])
	}
	for _, g := range sys.Generic {
		vs := g.E.Vars()
		for i := 1; i < len(vs); i++ {
			union(idx[vs[0]], idx[vs[i]])
		}
	}

	byRoot := map[int]*component{}
	order := []int{}
	for i, r := range sys.Roots {
		k := find(i)
		cp, ok := byRoot[k]
		if !ok {
			cp = &component{}
			byRoot[k] = cp
			order = append(order, k)
		}
		cp.roots = append(cp.roots, r)
	}
	for _, d := range sys.Diffs {
		byRoot[find(idx[d.A])].diffs = append(byRoot[find(idx[d.A])].diffs, d)
	}
	for _, n := range sys.Neqs {
		byRoot[find(idx[n.A])].neqs = append(byRoot[find(idx[n.A])].neqs, n)
	}
	for _, g := range sys.Generic {
		vs := g.E.Vars()
		if len(vs) > 0 {
			byRoot[find(idx[vs[0]])].generic = append(byRoot[find(idx[vs[0]])].generic, g)
		}
	}
	out := make([]component, 0, len(order))
	for _, k := range order {
		out = append(out, *byRoot[k])
	}
	return out
}

// distFor returns the marginal distribution of a variable: havoc variables
// are uniform over their registered domain, derived masked fields
// ("tcp_flags&18") get the exact image distribution of their base field,
// and header fields come from the oracle (uniform over the field width when
// the oracle has no answer).
func (c *Counter) distFor(v solver.Var) dist.Dist {
	if strings.HasPrefix(v.Field, "__") {
		dom := c.Space.Domain(v)
		return dist.UniformRange(dom.Lo, dom.Hi)
	}
	if i := strings.LastIndex(v.Field, "&"); i > 0 {
		return c.maskedDist(v, v.Field[:i], v.Field[i+1:])
	}
	if d, ok := c.Oracle.FieldDist(v.Field); ok {
		return d
	}
	dom := c.Space.Domain(v)
	return dist.UniformRange(dom.Lo, dom.Hi)
}

// maskedDist computes the distribution of (base & mask).
func (c *Counter) maskedDist(v solver.Var, base, maskStr string) dist.Dist {
	var mask uint64
	fmt.Sscanf(maskStr, "%d", &mask)
	baseBits, ok := c.Space.FieldBits[base]
	if !ok {
		baseBits = 32
	}
	baseDist, known := c.Oracle.FieldDist(base)
	if !known {
		baseDist = dist.Uniform(baseBits)
	}
	// Exact image by enumeration for small base domains.
	if baseBits <= 16 {
		masses := map[uint64]float64{}
		max := (uint64(1) << uint(baseBits)) - 1
		for x := uint64(0); ; x++ {
			if p := baseDist.P(x); p > 0 {
				masses[x&mask] += p
			}
			if x == max {
				break
			}
		}
		pieces := make([]dist.Piece, 0, len(masses))
		for val, m := range masses {
			pieces = append(pieces, dist.Piece{Lo: val, Hi: val, Mass: m})
		}
		if d, err := dist.FromPieces(pieces); err == nil {
			return d
		}
	}
	// Wide base: assume masked bits are uniform, so every submask of mask
	// is equally likely.
	pc := popcount(mask)
	if pc <= 12 {
		p := 1 / float64(uint64(1)<<uint(pc))
		var pieces []dist.Piece
		for sub := mask; ; sub = (sub - 1) & mask {
			pieces = append(pieces, dist.Piece{Lo: sub, Hi: sub, Mass: p})
			if sub == 0 {
				break
			}
		}
		if d, err := dist.FromPieces(pieces); err == nil {
			return d
		}
	}
	return dist.UniformRange(0, mask)
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// sameFieldClass reports whether all members of a class read the same
// header field of distinct packets with identical offsets — the
// cross-packet-equality pattern where a pair-equality oracle query applies.
func sameFieldClass(members []solver.Member) (string, int64, bool) {
	if len(members) < 2 {
		return "", 0, false
	}
	field := members[0].Var.Field
	off := members[0].Off
	pkts := map[int]bool{}
	for _, m := range members {
		if m.Var.Field != field || m.Off != off {
			return "", 0, false
		}
		if pkts[m.Var.Pkt] {
			return "", 0, false
		}
		pkts[m.Var.Pkt] = true
	}
	return field, off, true
}

// classMass computes the probability mass of one equality class within its
// propagated interval, excluding punched holes.
func (c *Counter) classMass(sys *solver.System, root solver.Var) float64 {
	members := sys.Members[root]
	iv := sys.RootIv[root]
	if iv.Empty() {
		return 0
	}

	// Cross-packet equality: ask the oracle for the pair-equality
	// probability (e.g. the retransmission ratio for seq numbers).
	if field, off, ok := sameFieldClass(members); ok {
		if pe, known := c.Oracle.PairEqualProb(field); known {
			d := c.distFor(members[0].Var)
			shifted := iv.Shift(off) // value-space interval
			mass := d.MassIn(shifted.Lo, shifted.Hi)
			p := mass
			for i := 1; i < len(members); i++ {
				p *= pe
			}
			// Holes are in root space; translate and discount.
			for _, h := range sys.Holes[root] {
				vh := uint64(int64(h) + off)
				p -= d.P(vh) * powf(pe, len(members)-1)
			}
			if p < 0 {
				p = 0
			}
			return p
		}
	}

	segs := c.classSegments(sys, root)
	mass := 0.0
	for _, s := range segs {
		mass += s.dens * (float64(s.hi-s.lo) + 1)
	}
	for _, h := range sys.Holes[root] {
		mass -= segDensityAt(segs, h)
	}
	if mass < 0 {
		mass = 0
	}
	return mass
}

func powf(p float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= p
	}
	return out
}

// wseg is a segment of the class weight function: for root values in
// [lo,hi], the probability that every member takes its implied value is
// dens per root value.
type wseg struct {
	lo, hi uint64
	dens   float64
}

func segDensityAt(segs []wseg, v uint64) float64 {
	for _, s := range segs {
		if v >= s.lo && v <= s.hi {
			return s.dens
		}
	}
	return 0
}

// classSegments computes the piecewise-constant weight function of an
// equality class over root space: w(x) = ∏_i P_i(x + off_i), restricted to
// the propagated interval.
func (c *Counter) classSegments(sys *solver.System, root solver.Var) []wseg {
	members := sys.Members[root]
	iv := sys.RootIv[root]
	if iv.Empty() {
		return nil
	}
	// Shift every member's distribution into root coordinates and collect
	// breakpoints. A piece keeps its per-value density: the shift may clip
	// it at 0 or MaxUint64, and the clipped values carry no mass.
	sh := make([][]wseg, len(members))
	cuts := []uint64{iv.Lo}
	addCut := func(v uint64) {
		if v >= iv.Lo && v <= iv.Hi {
			cuts = append(cuts, v)
		}
	}
	for i, m := range members {
		d := c.distFor(m.Var)
		for _, p := range d.Pieces {
			lo := solver.Interval{Lo: p.Lo, Hi: p.Hi}.Shift(-m.Off)
			if lo.Empty() {
				continue
			}
			sh[i] = append(sh[i], wseg{lo: lo.Lo, hi: lo.Hi, dens: p.Mass / (float64(p.Hi-p.Lo) + 1)})
			addCut(lo.Lo)
			if lo.Hi < ^uint64(0) {
				addCut(lo.Hi + 1)
			}
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)

	var segs []wseg
	for i, lo := range cuts {
		var hi uint64
		if i+1 < len(cuts) {
			hi = cuts[i+1] - 1
		} else {
			hi = iv.Hi
		}
		if hi > iv.Hi {
			hi = iv.Hi
		}
		if lo > hi {
			continue
		}
		dens := 1.0
		for _, s := range sh {
			dens *= segDensityAt(s, lo)
			if dens == 0 {
				break
			}
		}
		if dens > 0 {
			segs = append(segs, wseg{lo: lo, hi: hi, dens: dens})
		}
	}
	return segs
}
