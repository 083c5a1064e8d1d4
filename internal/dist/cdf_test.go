package dist

import (
	"math"
	"math/rand"
	"testing"
)

// binarySearchIndex is the search CDF replaced in Sampler and in mc's
// Monte-Carlo draws, kept as the reference: the first i with u <= cum[i],
// the last index when there is none.
func binarySearchIndex(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if u <= cum[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// fuzzCum decodes running sums: one weight per byte of spec (0 gives a
// zero-mass piece, so equal neighbours), cubed to skew toward a few heavy
// pieces, repeated cyclically to n sums and scaled by 2^-shift, which
// reaches tiny, denormal and underflowed totals.
func fuzzCum(spec []byte, n int, shift int) []float64 {
	if len(spec) == 0 {
		return nil
	}
	cum := make([]float64, n)
	acc := 0.0
	for i := range cum {
		w := float64(spec[i%len(spec)])
		acc += math.Ldexp(w*w*w, -shift)
		cum[i] = acc
	}
	return cum
}

// FuzzCDFMatchesBinarySearch pins CDF.Index to the binary search on every
// sum, its floating-point neighbours, values above the total and seeded
// uniform draws below it.
func FuzzCDFMatchesBinarySearch(f *testing.F) {
	f.Add([]byte{7}, uint16(1), uint16(0), int64(1))                        // one piece
	f.Add([]byte{3, 0, 0, 5, 0, 9}, uint16(6), uint16(0), int64(2))         // zero-mass runs: equal neighbours
	f.Add([]byte{255, 1, 1, 1}, uint16(4), uint16(0), int64(3))             // skewed
	f.Add([]byte{1, 2, 3, 0, 250, 4, 0}, uint16(4000), uint16(0), int64(4)) // K in the thousands
	f.Add([]byte{1, 1, 2}, uint16(3), uint16(1000), int64(5))               // tiny total
	f.Add([]byte{1, 0, 1}, uint16(3), uint16(1074), int64(6))               // denormal total: no table
	f.Add([]byte{2, 5}, uint16(2), uint16(1100), int64(7))                  // total underflows to 0
	f.Add([]byte{0, 0, 0}, uint16(3), uint16(0), int64(8))                  // all zero
	f.Add([]byte{}, uint16(0), uint16(0), int64(9))                         // empty
	f.Fuzz(func(t *testing.T, spec []byte, n, shift uint16, seed int64) {
		cum := fuzzCum(spec, 1+int(n)%5000, int(shift)%1200)
		c := NewCDF(cum)
		check := func(u float64) {
			if got, want := c.Index(u), binarySearchIndex(cum, u); got != want {
				t.Fatalf("u=%v over %d sums (total %v): Index %d, binary search %d", u, len(cum), cum[len(cum)-1], got, want)
			}
		}
		if len(cum) == 0 {
			if got := c.Index(0.5); got != 0 || c.Total() != 0 {
				t.Fatalf("empty sums: Index = %d, Total = %v, want 0, 0", got, c.Total())
			}
			return
		}
		total := cum[len(cum)-1]
		if c.Total() != total {
			t.Fatalf("Total = %v, last sum %v", c.Total(), total)
		}
		for _, s := range cum {
			check(s) // exactly on a boundary
			check(math.Nextafter(s, math.Inf(1)))
			check(math.Nextafter(s, math.Inf(-1)))
		}
		for _, u := range []float64{0, total * 2, 1, math.Inf(1), math.NaN(), -1} {
			check(u) // 1: above a tiny total, as Sampler's unscaled u can be
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 256; i++ {
			check(rng.Float64() * total)
		}
	})
}
