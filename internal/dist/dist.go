// Package dist models header-field value distributions and the traffic
// oracle interface. P4wn weighs the volume of path-constraint polytopes by
// these distributions ("skewed multi-dimensional space" in the paper): a
// traffic profile maps each header field to a piecewise-uniform marginal
// distribution, and optionally answers correlation queries such as "how
// likely do two successive packets carry the same seq?" — the
// retransmission-ratio style query Blink's analysis needs.
package dist

import (
	"fmt"
	"math/rand"
	"sort"
)

// Piece is one segment of a piecewise-uniform distribution: total
// probability Mass spread uniformly over the inclusive range [Lo, Hi].
type Piece struct {
	Lo, Hi uint64
	Mass   float64
}

func (p Piece) width() float64 { return float64(p.Hi-p.Lo) + 1 }

// Density returns the per-value probability within the piece.
func (p Piece) Density() float64 {
	return p.Mass / p.width()
}

// Dist is a piecewise-uniform distribution over an unsigned domain.
// Pieces are sorted, non-overlapping, and masses sum to ~1.
type Dist struct {
	Pieces []Piece
}

// Uniform returns the uniform distribution over a width-bit field.
func Uniform(bits int) Dist {
	var hi uint64
	if bits >= 64 {
		hi = ^uint64(0)
	} else {
		hi = (uint64(1) << uint(bits)) - 1
	}
	return Dist{Pieces: []Piece{{Lo: 0, Hi: hi, Mass: 1}}}
}

// UniformRange returns the uniform distribution over [lo, hi].
func UniformRange(lo, hi uint64) Dist {
	return Dist{Pieces: []Piece{{Lo: lo, Hi: hi, Mass: 1}}}
}

// Point returns the distribution concentrated on a single value.
func Point(v uint64) Dist {
	return Dist{Pieces: []Piece{{Lo: v, Hi: v, Mass: 1}}}
}

// FromPieces builds a distribution from raw pieces, sorting and normalizing
// them. Overlapping pieces are rejected.
func FromPieces(pieces []Piece) (Dist, error) {
	ps := append([]Piece(nil), pieces...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Lo < ps[j].Lo })
	total := 0.0
	for i, p := range ps {
		if p.Hi < p.Lo {
			return Dist{}, fmt.Errorf("dist: piece %d has Hi < Lo", i)
		}
		if i > 0 && p.Lo <= ps[i-1].Hi {
			return Dist{}, fmt.Errorf("dist: pieces %d and %d overlap", i-1, i)
		}
		if p.Mass < 0 {
			return Dist{}, fmt.Errorf("dist: piece %d has negative mass", i)
		}
		total += p.Mass
	}
	if total <= 0 {
		return Dist{}, fmt.Errorf("dist: zero total mass")
	}
	for i := range ps {
		ps[i].Mass /= total
	}
	return Dist{Pieces: ps}, nil
}

// MustFromPieces is FromPieces that panics on error.
func MustFromPieces(pieces []Piece) Dist {
	d, err := FromPieces(pieces)
	if err != nil {
		panic(err)
	}
	return d
}

// Mixture blends distributions with the given weights.
func Mixture(ds []Dist, ws []float64) (Dist, error) {
	if len(ds) != len(ws) {
		return Dist{}, fmt.Errorf("dist: %d dists but %d weights", len(ds), len(ws))
	}
	// Collect all boundaries, then sum densities per segment.
	bounds := map[uint64]bool{}
	for _, d := range ds {
		for _, p := range d.Pieces {
			bounds[p.Lo] = true
			if p.Hi != ^uint64(0) {
				bounds[p.Hi+1] = true
			}
		}
	}
	var cuts []uint64
	for b := range bounds {
		cuts = append(cuts, b)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var out []Piece
	for i := 0; i < len(cuts); i++ {
		lo := cuts[i]
		var hi uint64
		if i+1 < len(cuts) {
			hi = cuts[i+1] - 1
		} else {
			hi = ^uint64(0)
		}
		den := 0.0
		for k, d := range ds {
			den += ws[k] * d.densityAt(lo)
		}
		if den > 0 {
			out = append(out, Piece{Lo: lo, Hi: hi, Mass: den * (float64(hi-lo) + 1)})
		}
	}
	return FromPieces(out)
}

func (d Dist) densityAt(v uint64) float64 {
	for _, p := range d.Pieces {
		if v >= p.Lo && v <= p.Hi {
			return p.Density()
		}
	}
	return 0
}

// P returns the probability of a single value.
func (d Dist) P(v uint64) float64 { return d.densityAt(v) }

// MassIn returns the probability of the inclusive range [lo, hi].
func (d Dist) MassIn(lo, hi uint64) float64 {
	if hi < lo {
		return 0
	}
	m := 0.0
	for _, p := range d.Pieces {
		l, h := max64(lo, p.Lo), min64(hi, p.Hi)
		if l > h {
			continue
		}
		m += p.Density() * (float64(h-l) + 1)
	}
	return m
}

// CollisionMass returns Σ_v P(v)^2: the probability that two independent
// draws coincide. This is the independence-based answer to a pair-equality
// query.
func (d Dist) CollisionMass() float64 {
	s := 0.0
	for _, p := range d.Pieces {
		den := p.Density()
		s += den * den * p.width()
	}
	return s
}

// Sampler draws values from a distribution. It sums the pieces' masses
// once, in piece order, and a draw looks the running sums up in a CDF
// instead of scanning the pieces.
type Sampler struct {
	pieces []Piece
	cdf    CDF // over cum[i] = Mass of pieces[0..i], summed left to right
}

// Sampler returns a sampler over d.
func (d Dist) Sampler() Sampler {
	cum := make([]float64, len(d.Pieces))
	acc := 0.0
	for i, p := range d.Pieces {
		acc += p.Mass
		cum[i] = acc
	}
	return Sampler{pieces: d.Pieces, cdf: NewCDF(cum)}
}

// Sample draws one value: a uniform u picks the first piece whose running
// mass reaches it (the last piece when rounding leaves u above every sum),
// then a value uniform within that piece. An empty distribution draws 0.
func (s Sampler) Sample(rng *rand.Rand) uint64 {
	u := rng.Float64()
	if len(s.pieces) == 0 {
		return 0
	}
	p := s.pieces[s.cdf.Index(u)]
	span := p.Hi - p.Lo
	if span == ^uint64(0) {
		return rng.Uint64()
	}
	return p.Lo + uint64(rng.Int63n(int64(minU(span+1, 1<<62))))
}

// SampleIn draws one value conditioned on [lo, hi]; ok is false when the
// range has zero mass.
func (d Dist) SampleIn(rng *rand.Rand, lo, hi uint64) (uint64, bool) {
	total := d.MassIn(lo, hi)
	if total <= 0 {
		return 0, false
	}
	u := rng.Float64() * total
	acc := 0.0
	for _, p := range d.Pieces {
		l, h := max64(lo, p.Lo), min64(hi, p.Hi)
		if l > h {
			continue
		}
		m := p.Density() * (float64(h-l) + 1)
		acc += m
		if u <= acc {
			span := h - l
			if span == ^uint64(0) {
				return rng.Uint64(), true
			}
			return l + uint64(rng.Int63n(int64(minU(span+1, 1<<62)))), true
		}
	}
	return 0, false
}

// Restrict returns the distribution conditioned on [lo, hi] along with the
// mass of that range (the conditioning constant).
func (d Dist) Restrict(lo, hi uint64) (Dist, float64) {
	var out []Piece
	for _, p := range d.Pieces {
		l, h := max64(lo, p.Lo), min64(hi, p.Hi)
		if l > h {
			continue
		}
		out = append(out, Piece{Lo: l, Hi: h, Mass: p.Density() * (float64(h-l) + 1)})
	}
	if len(out) == 0 {
		return Dist{}, 0
	}
	total := 0.0
	for _, p := range out {
		total += p.Mass
	}
	for i := range out {
		out[i].Mass /= total
	}
	return Dist{Pieces: out}, total
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
