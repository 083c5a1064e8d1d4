package dist

import "math"

// CDF picks an index by inverse-CDF lookup over running masses: Index(u)
// is the first i with u <= cum[i], or the last index when u exceeds every
// sum. A guide table (Chen and Asau's cutpoints) starts the search near
// the answer, so a draw scans O(1) sums on average instead of binary
// searching all of them.
//
// guide[j] is the first i with cum[i]*scale >= j, where scale =
// len(cum)/cum[len(cum)-1]. Rounding a product by a positive scale is
// monotone, so u <= cum[i] implies u*scale <= cum[i]*scale, and the
// answer i is never below guide[int(u*scale)]: a forward scan from there
// stops where a scan from 0 would, for any sums, zero-mass runs included.
type CDF struct {
	cum   []float64
	guide []int // nil unless scale is positive and finite: scan from 0
	scale float64
}

// NewCDF builds the lookup over running masses cum, which it keeps
// without copying. Running masses of non-negative pieces never decrease,
// so the first index a scan finds is also the one a binary search finds.
func NewCDF(cum []float64) CDF {
	c := CDF{cum: cum}
	k := len(cum)
	if k == 0 {
		return c
	}
	scale := float64(k) / cum[k-1]
	// A zero, negative or NaN total, or a denormal one that overflows the
	// scale, leaves no usable table.
	if !(scale > 0) || math.IsInf(scale, 1) {
		return c
	}
	c.scale = scale
	c.guide = make([]int, k)
	i := 0
	for j := range c.guide {
		for i < k-1 && !(cum[i]*scale >= float64(j)) {
			i++
		}
		c.guide[j] = i
	}
	return c
}

// Total returns the last running mass, or 0 for empty sums.
func (c *CDF) Total() float64 {
	if len(c.cum) == 0 {
		return 0
	}
	return c.cum[len(c.cum)-1]
}

// Index returns the first i with u <= cum[i], or the last index when
// there is none (u above every sum, or NaN). It returns 0 for empty sums.
func (c *CDF) Index(u float64) int {
	i, last := 0, len(c.cum)-1
	if c.guide != nil {
		// Clamp in floating point: converting an out-of-range float to
		// int is implementation-defined.
		if f := u * c.scale; f >= float64(last) {
			i = c.guide[last]
		} else if f > 0 {
			i = c.guide[int(f)]
		}
	}
	for i < last && !(u <= c.cum[i]) {
		i++
	}
	return i
}
