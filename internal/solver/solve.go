package solver

import (
	"context"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/ir"
)

// SolveOptions tunes the assignment search.
type SolveOptions struct {
	// Seed drives the randomized restarts; the same seed yields the same
	// witness.
	Seed int64
	// Restarts bounds the number of randomized restarts (default 64).
	Restarts int
	// Ctx cancels the search: it is checked once per restart attempt and
	// stride-checked inside the generic-repair loop, so a canceled job
	// stops solving promptly. A canceled search reports no witness; the
	// caller distinguishes cancellation from unsatisfiability by
	// inspecting the context. Nil means no cancellation.
	Ctx context.Context
}

// ctxCanceled is the nil-safe cancellation probe the search loops use.
func (o SolveOptions) ctxCanceled() bool {
	if o.Ctx == nil {
		return false
	}
	select {
	case <-o.Ctx.Done():
		return true
	default:
		return false
	}
}

// Solve finds a concrete satisfying assignment for the conjunction, or
// reports unsatisfiability. The assignment covers every variable mentioned
// by the constraints.
func Solve(cs []Constraint, space *Space, opt SolveOptions) (map[Var]uint64, bool) {
	sys := Build(cs, space)
	return sys.Solve(opt)
}

// Feasible runs propagation only: a fast, conservative satisfiability check
// used to prune symbolic paths. It never reports a satisfiable system as
// infeasible; with disequality or generic residue it may (rarely) report an
// infeasible one as feasible. It runs Build's normalization and returns its
// verdict without exporting a System.
func Feasible(cs []Constraint, space *Space) bool {
	metrics.feasible.Add(1)
	var buf normBuf
	return buf.norm().run(cs, space).feasible
}

// FeasibleFrom returns Feasible(cs, space) on the precondition that
// cs[:known] is already Build-feasible over the same domains. It normalizes
// only the slice of cs that can interact with the new constraints
// cs[known:]: a variable set is seeded from cs[known:], every cs[:known]
// constraint sharing a variable with the set joins it (to a fixpoint), and
// the joined prefix constraints and cs[known:] are normalized in their
// original order. known <= 0 is the full Feasible. Either way it runs
// exactly one build, so the solver counters match Feasible's.
//
// The verdict is identical because Build never links two variable-disjoint
// groups of constraints, so each group's Build state is the same whether
// it is built alone or with the others, and the full verdict is feasible
// iff every group's is:
//   - union-find classes, root intervals, holes, disequalities and
//     difference constraints are all keyed by variables of one group;
//   - propagate relaxes a difference constraint only between roots of one
//     group, in the same relative order. A group without a negative cycle
//     reaches its fixpoint (or its contradiction) by round |roots|, below
//     the round bound of any system holding it; a group with one never
//     converges and is infeasible under any bound. This relies on bounds
//     staying below 2^63, where propagation is exact: ir.Build caps packet
//     fields at 61 bits and the engine's havoc domains are narrower;
//   - the generic residue never sets Feasible.
//
// A prefix constraint outside the slice belongs to a group that lies wholly
// in cs[:known], which Build already found feasible; a constant prefix
// constraint therefore holds.
func FeasibleFrom(cs []Constraint, known int, space *Space) bool {
	if known <= 0 {
		return Feasible(cs, space)
	}
	metrics.feasible.Add(1)
	var seen [8]Var
	var part [8]Constraint
	var buf normBuf
	return buf.norm().run(sliceFrom(part[:0], seen[:0], cs, known), space).feasible
}

// sliceFrom appends to dst, in original order, the constraints of cs[:known]
// that are connected through shared variables to cs[known:], followed by
// cs[known:] itself. seen is scratch space for the connected variables.
func sliceFrom(dst []Constraint, seen []Var, cs []Constraint, known int) []Constraint {
	for _, c := range cs[known:] {
		seen = addVars(seen, c)
	}
	// A pass that adds no variable leaves the set closed: every prefix
	// constraint touching it then has all its variables in it, so the slice
	// is exactly the prefix constraints that touch the final set.
	for grew := len(seen) > 0; grew; {
		n := len(seen)
		for i := known - 1; i >= 0; i-- {
			if touches(cs[i], seen) {
				seen = addVars(seen, cs[i])
			}
		}
		grew = len(seen) > n
	}
	for _, c := range cs[:known] {
		if touches(c, seen) {
			dst = append(dst, c)
		}
	}
	return append(dst, cs[known:]...)
}

// addVars adds c's variables to the set seen.
func addVars(seen []Var, c Constraint) []Var {
	for _, t := range c.E.Terms {
		if !slices.Contains(seen, t.Var) {
			seen = append(seen, t.Var)
		}
	}
	return seen
}

func touches(c Constraint, seen []Var) bool {
	for _, t := range c.E.Terms {
		if slices.Contains(seen, t.Var) {
			return true
		}
	}
	return false
}

// Solve searches for a witness of the normalized system.
func (s *System) Solve(opt SolveOptions) (map[Var]uint64, bool) {
	asn, ok := s.solve(opt)
	metrics.solves.Add(1)
	if ok {
		metrics.solveSat.Add(1)
	} else {
		metrics.solveUnsat.Add(1)
	}
	return asn, ok
}

func (s *System) solve(opt SolveOptions) (map[Var]uint64, bool) {
	if !s.Feasible {
		return nil, false
	}
	if opt.Restarts == 0 {
		opt.Restarts = 64
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	for attempt := 0; attempt <= opt.Restarts; attempt++ {
		if opt.ctxCanceled() {
			return nil, false
		}
		rootVal, ok := s.assignRoots(rng, attempt > 0)
		if !ok {
			continue
		}
		asn := s.expand(rootVal)
		if s.checkGeneric(asn) {
			return asn, true
		}
		// Generic residue failed: try perturbing the variables involved.
		if asn2, ok := s.repairGeneric(rng, rootVal, opt); ok {
			return asn2, true
		}
	}
	return nil, false
}

// assignRoots picks a value per root honoring intervals, diffs, holes and
// neqs. Roots are processed in deterministic order; when randomize is set,
// the initial pick within the feasible range is randomized, which serves as
// the restart strategy.
func (s *System) assignRoots(rng *rand.Rand, randomize bool) (map[Var]uint64, bool) {
	val := map[Var]uint64{}
	for _, r := range s.Roots {
		iv := s.RootIv[r]
		// Tighten with diffs against already-assigned roots.
		for _, d := range s.Diffs {
			if d.A == r {
				if bv, ok := val[d.B]; ok {
					hi := satAdd(int64(bv), d.C)
					if hi < 0 {
						return nil, false
					}
					if uint64(hi) < iv.Hi {
						iv.Hi = uint64(hi)
					}
				}
			}
			if d.B == r {
				if av, ok := val[d.A]; ok {
					lo := satAdd(int64(av), -d.C)
					if lo > 0 && uint64(lo) > iv.Lo {
						iv.Lo = uint64(lo)
					}
				}
			}
		}
		if iv.Empty() {
			return nil, false
		}
		// Collect forbidden values: holes plus neqs against assigned roots.
		forbidden := map[uint64]bool{}
		for _, h := range s.Holes[r] {
			forbidden[h] = true
		}
		for _, n := range s.Neqs {
			if n.A == r {
				if bv, ok := val[n.B]; ok {
					t := satAdd(int64(bv), n.C)
					if t >= 0 {
						forbidden[uint64(t)] = true
					}
				}
			}
			if n.B == r {
				if av, ok := val[n.A]; ok {
					t := satAdd(int64(av), -n.C)
					if t >= 0 {
						forbidden[uint64(t)] = true
					}
				}
			}
		}
		v, ok := pick(iv, forbidden, rng, randomize)
		if !ok {
			return nil, false
		}
		val[r] = v
	}
	return val, true
}

// pick chooses a value in iv avoiding the forbidden set.
func pick(iv Interval, forbidden map[uint64]bool, rng *rand.Rand, randomize bool) (uint64, bool) {
	width := iv.Hi - iv.Lo // may be MaxUint64-0; handled below
	start := iv.Lo
	if randomize {
		if width == ^uint64(0) {
			start = rng.Uint64()
		} else {
			start = iv.Lo + uint64(rng.Int63n(int64(min64(width+1, 1<<62))))
		}
	}
	// Scan upward from start, wrapping once at Hi.
	limit := 4096 // forbidden sets are tiny in practice
	v := start
	for i := 0; i <= limit; i++ {
		if !forbidden[v] {
			return v, true
		}
		if v == iv.Hi {
			v = iv.Lo
		} else {
			v++
		}
		if v == start {
			break
		}
	}
	// Exhaustive fallback for small intervals.
	if !iv.Empty() && iv.Size() <= float64(len(forbidden)+1) {
		for v := iv.Lo; ; v++ {
			if !forbidden[v] {
				return v, true
			}
			if v == iv.Hi {
				break
			}
		}
	}
	return 0, false
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// expand derives every member variable's value from its root value.
func (s *System) expand(rootVal map[Var]uint64) map[Var]uint64 {
	asn := make(map[Var]uint64, len(rootVal))
	for r, ms := range s.Members {
		rv := int64(rootVal[r])
		for _, m := range ms {
			asn[m.Var] = uint64(rv + m.Off)
		}
	}
	return asn
}

// checkGeneric verifies the generic residue under an assignment.
func (s *System) checkGeneric(asn map[Var]uint64) bool {
	for _, c := range s.Generic {
		if !c.Holds(asn) {
			return false
		}
	}
	return true
}

// repairGeneric retries random values for the roots involved in failing
// generic constraints. The 512-try loop is stride-checked against the
// caller's context (every 64 tries, matching the engine's tickBudget
// stride) so a canceled job never rides out the full repair budget.
func (s *System) repairGeneric(rng *rand.Rand, rootVal map[Var]uint64, opt SolveOptions) (map[Var]uint64, bool) {
	involved := map[Var]bool{}
	for _, c := range s.Generic {
		for _, v := range c.E.Vars() {
			involved[v] = true
		}
	}
	if len(involved) == 0 {
		return nil, false
	}
	var roots []Var
	for v := range involved {
		roots = append(roots, v)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Less(roots[j]) })

	for try := 0; try < 512; try++ {
		if try%64 == 63 && opt.ctxCanceled() {
			return nil, false
		}
		trial := make(map[Var]uint64, len(rootVal))
		for k, v := range rootVal {
			trial[k] = v
		}
		for _, r := range roots {
			iv := s.RootIv[r]
			if iv.Empty() {
				return nil, false
			}
			span := iv.Hi - iv.Lo
			if span == ^uint64(0) {
				trial[r] = rng.Uint64()
			} else {
				trial[r] = iv.Lo + uint64(rng.Int63n(int64(min64(span+1, 1<<62))))
			}
		}
		// Pivot-solve each equality constraint for one of its variables:
		// with the others fixed, coef*pivot = -(K + rest) has at most one
		// solution, which we take when it lands in the pivot's interval.
		for _, c := range s.Generic {
			if c.Op != ir.CmpEq || c.Holds(trial) {
				continue
			}
			for _, t := range c.E.Terms {
				rest := c.E.K
				for _, o := range c.E.Terms {
					if o.Var != t.Var {
						rest += o.Coef * int64(trial[o.Var])
					}
				}
				if t.Coef == 0 || rest%t.Coef != 0 {
					continue
				}
				want := -rest / t.Coef
				if want >= 0 && s.RootIv[t.Var].Contains(uint64(want)) {
					trial[t.Var] = uint64(want)
					break
				}
			}
		}
		if !s.consistent(trial) {
			continue
		}
		asn := s.expand(trial)
		if s.checkGeneric(asn) {
			return asn, true
		}
	}
	return nil, false
}

// consistent re-verifies diffs/neqs/holes for a candidate root valuation.
func (s *System) consistent(val map[Var]uint64) bool {
	for _, d := range s.Diffs {
		if int64(val[d.A])-int64(val[d.B]) > d.C {
			return false
		}
	}
	for _, n := range s.Neqs {
		if int64(val[n.A]) == satAdd(int64(val[n.B]), n.C) {
			return false
		}
	}
	for r, hs := range s.Holes {
		v, ok := val[r]
		if !ok {
			continue
		}
		for _, h := range hs {
			if v == h {
				return false
			}
		}
	}
	return true
}
