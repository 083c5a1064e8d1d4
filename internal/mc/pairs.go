package mc

import (
	"math"
	"slices"

	"repro/internal/prob"
	"repro/internal/solver"
)

// pairProb exactly counts a two-class component linked by difference and
// disequality constraints: P = Σ_{x,y} wA(x)·wB(y)·[dlo ≤ x−y ≤ dhi]·[x ≠ y+c ...].
func (c *Counter) pairProb(sys *solver.System, comp component) prob.P {
	a, b := comp.roots[0], comp.roots[1]

	// Fold all difference constraints into a single window on x−y.
	dlo := int64(math.MinInt64 / 4)
	dhi := int64(math.MaxInt64 / 4)
	for _, d := range comp.diffs {
		switch {
		case d.A == a && d.B == b: // x − y <= C
			if d.C < dhi {
				dhi = d.C
			}
		case d.A == b && d.B == a: // y − x <= C  =>  x − y >= −C
			if -d.C > dlo {
				dlo = -d.C
			}
		}
	}
	if dlo > dhi {
		return prob.Zero()
	}

	// Disequalities become excluded diagonals x − y == c, each counted
	// once, in ascending order.
	var excluded []int64
	for _, n := range comp.neqs {
		var e int64
		switch {
		case n.A == a && n.B == b: // x != y + C
			e = n.C
		case n.A == b && n.B == a: // y != x + C  =>  x != y − C
			e = -n.C
		default:
			continue
		}
		if e >= dlo && e <= dhi {
			excluded = append(excluded, e)
		}
	}
	slices.Sort(excluded)
	excluded = slices.Compact(excluded)

	segsA := punchHoles(c.classSegments(sys, a), sys.Holes[a])
	segsB := punchHoles(c.classSegments(sys, b), sys.Holes[b])

	total := 0.0
	for _, sa := range segsA {
		for _, sb := range segsB {
			n := countPairs(sa.lo, sa.hi, sb.lo, sb.hi, dlo, dhi)
			if n <= 0 {
				continue
			}
			for _, e := range excluded {
				n -= countDiagonal(sa.lo, sa.hi, sb.lo, sb.hi, e)
			}
			if n > 0 {
				total += sa.dens * sb.dens * n
			}
		}
	}
	return prob.FromFloat(total)
}

// punchHoles removes single excluded root values from weight segments.
func punchHoles(segs []wseg, holes []uint64) []wseg {
	if len(holes) == 0 {
		return segs
	}
	out := make([]wseg, 0, len(segs)+len(holes))
	for _, s := range segs {
		cur := s
		intact := true
		for _, h := range holes {
			if h < cur.lo || h > cur.hi {
				continue
			}
			intact = false
			if h > cur.lo {
				out = append(out, wseg{lo: cur.lo, hi: h - 1, dens: cur.dens})
			}
			if h < cur.hi {
				cur = wseg{lo: h + 1, hi: cur.hi, dens: cur.dens}
			} else {
				cur = wseg{lo: 1, hi: 0}
				break
			}
		}
		if intact {
			out = append(out, s)
		} else if cur.lo <= cur.hi {
			out = append(out, cur)
		}
	}
	return out
}

// countPairs returns |{(x,y) : x∈[a0,a1], y∈[b0,b1], dlo ≤ x−y ≤ dhi}| as a
// float64 (exact for counts below 2^53). The per-y count
// f(y) = max(0, min(a1, y+dhi) − max(a0, y+dlo) + 1) is piecewise linear
// with slopes in {−1,0,1}; we sum arithmetic series between breakpoints.
func countPairs(a0u, a1u, b0u, b1u uint64, dlo, dhi int64) float64 {
	a0, a1 := int64(a0u), int64(a1u)
	b0, b1 := int64(b0u), int64(b1u)
	if a0 > a1 || b0 > b1 {
		return 0
	}
	// f may go negative; seriesSum clamps it, which is essential for
	// detecting sign changes inside a segment.
	f := func(y int64) int64 {
		hi := y + dhi
		if a1 < hi {
			hi = a1
		}
		lo := y + dlo
		if a0 > lo {
			lo = a0
		}
		return hi - lo + 1
	}
	// Candidate breakpoints: where either clamp switches regime. The ones
	// inside [b0,b1] are sorted and deduplicated in a fixed array, so
	// counting a pair allocates nothing.
	var buf [10]int64
	cuts := buf[:0]
	for _, cd := range [...]int64{b0, b1, a1 - dhi, a1 - dhi + 1, a0 - dlo, a0 - dlo - 1, a0 - dlo + 1, a1 - dhi - 1, a0 - dhi, a1 - dlo} {
		if cd >= b0 && cd <= b1 {
			cuts = append(cuts, cd)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)

	total := 0.0
	for i := 0; i < len(cuts); i++ {
		s := cuts[i]
		var e int64
		if i+1 < len(cuts) {
			e = cuts[i+1] - 1
		} else {
			e = b1
		}
		if s > e {
			continue
		}
		fs, fe := f(s), f(e)
		// Between consecutive breakpoints f is linear; clamping to 0
		// cannot flip sign inside because the zero boundary is itself a
		// breakpoint candidate (a0−dhi, a1−dlo cover f==1 edges); still,
		// guard by splitting on sign just in case.
		total += seriesSum(s, e, fs, fe)
	}
	return total
}

// seriesSum sums max(0, f(y)) for y in [s,e] where f is linear with f(s)=fs,
// f(e)=fe and integer slope.
func seriesSum(s, e, fs, fe int64) float64 {
	n := e - s + 1
	if n <= 0 {
		return 0
	}
	if fs <= 0 && fe <= 0 {
		return 0
	}
	if fs >= 0 && fe >= 0 {
		return float64(fs+fe) * float64(n) / 2
	}
	// Sign change: slope is (fe-fs)/(e-s) = ±1 for our f.
	if n == 1 {
		if fs > 0 {
			return float64(fs)
		}
		return 0
	}
	m := (fe - fs) / (e - s)
	if m == 0 {
		return 0 // can't happen with a sign change
	}
	// f(y) = fs + m(y−s); zero at y0 = s − fs/m.
	y0 := s - fs/m
	if fs < 0 {
		// positive part is (y0', e] where f > 0
		start := y0
		for start <= e && fs+m*(start-s) <= 0 {
			start++
		}
		if start > e {
			return 0
		}
		return seriesSum(start, e, fs+m*(start-s), fe)
	}
	// fs > 0, fe < 0: positive part is [s, end]
	end := y0
	for end >= s && fs+m*(end-s) <= 0 {
		end--
	}
	if end < s {
		return 0
	}
	return seriesSum(s, end, fs, fs+m*(end-s))
}

// countDiagonal counts pairs with x − y == c in the rectangle.
func countDiagonal(a0u, a1u, b0u, b1u uint64, c int64) float64 {
	a0, a1 := int64(a0u), int64(a1u)
	b0, b1 := int64(b0u), int64(b1u)
	lo := b0
	if a0-c > lo {
		lo = a0 - c
	}
	hi := b1
	if a1-c < hi {
		hi = a1 - c
	}
	if lo > hi {
		return 0
	}
	return float64(hi - lo + 1)
}
