package dist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func almostEq(a, b, tol float64) bool { return testutil.ApproxEqual(a, b, tol, 0) }

func TestUniform(t *testing.T) {
	d := Uniform(8)
	if !almostEq(d.P(0), 1.0/256, 1e-12) || !almostEq(d.P(255), 1.0/256, 1e-12) {
		t.Fatalf("uniform pmf wrong: %v", d.P(0))
	}
	if d.P(256) != 0 {
		t.Fatal("out of domain should be 0")
	}
	if !almostEq(d.MassIn(0, 255), 1, 1e-12) {
		t.Fatalf("total mass = %v", d.MassIn(0, 255))
	}
	if !almostEq(d.MassIn(0, 127), 0.5, 1e-12) {
		t.Fatalf("half mass = %v", d.MassIn(0, 127))
	}
}

func TestPoint(t *testing.T) {
	d := Point(42)
	if d.P(42) != 1 || d.P(41) != 0 {
		t.Fatal("point dist wrong")
	}
	if d.CollisionMass() != 1 {
		t.Fatal("point collision mass should be 1")
	}
}

func TestFromPiecesValidation(t *testing.T) {
	if _, err := FromPieces([]Piece{{Lo: 5, Hi: 3, Mass: 1}}); err == nil {
		t.Fatal("Hi<Lo should error")
	}
	if _, err := FromPieces([]Piece{{Lo: 0, Hi: 10, Mass: 1}, {Lo: 5, Hi: 20, Mass: 1}}); err == nil {
		t.Fatal("overlap should error")
	}
	if _, err := FromPieces([]Piece{{Lo: 0, Hi: 10, Mass: 0}}); err == nil {
		t.Fatal("zero mass should error")
	}
	d, err := FromPieces([]Piece{{Lo: 0, Hi: 9, Mass: 3}, {Lo: 10, Hi: 19, Mass: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d.MassIn(0, 9), 0.75, 1e-12) {
		t.Fatalf("normalization wrong: %v", d.MassIn(0, 9))
	}
}

func TestSkewedDist(t *testing.T) {
	// 90% TCP (proto 6), 10% UDP (proto 17) — the DCTCP-style profile.
	d := MustFromPieces([]Piece{{Lo: 6, Hi: 6, Mass: 0.9}, {Lo: 17, Hi: 17, Mass: 0.1}})
	if !almostEq(d.P(6), 0.9, 1e-12) || !almostEq(d.P(17), 0.1, 1e-12) {
		t.Fatalf("pmf: tcp=%v udp=%v", d.P(6), d.P(17))
	}
	if !almostEq(d.CollisionMass(), 0.81+0.01, 1e-12) {
		t.Fatalf("collision mass = %v", d.CollisionMass())
	}
}

func TestRestrict(t *testing.T) {
	d := Uniform(8)
	r, mass := d.Restrict(0, 63)
	if !almostEq(mass, 0.25, 1e-12) {
		t.Fatalf("restrict mass = %v", mass)
	}
	if !almostEq(r.MassIn(0, 63), 1, 1e-12) {
		t.Fatal("restricted dist should be normalized")
	}
	if _, m := d.Restrict(300, 400); m != 0 {
		t.Fatal("empty restrict should have zero mass")
	}
}

func TestMixture(t *testing.T) {
	a := UniformRange(0, 9)
	b := UniformRange(10, 19)
	m, err := Mixture([]Dist{a, b}, []float64{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(m.MassIn(0, 9), 0.7, 1e-9) || !almostEq(m.MassIn(10, 19), 0.3, 1e-9) {
		t.Fatalf("mixture masses: %v %v", m.MassIn(0, 9), m.MassIn(10, 19))
	}
}

func TestSampleRespectsSupport(t *testing.T) {
	d := MustFromPieces([]Piece{{Lo: 100, Hi: 199, Mass: 0.5}, {Lo: 300, Hi: 399, Mass: 0.5}})
	rng := rand.New(rand.NewSource(1))
	inFirst := 0
	for i := 0; i < 2000; i++ {
		v := d.Sampler().Sample(rng)
		if !((v >= 100 && v <= 199) || (v >= 300 && v <= 399)) {
			t.Fatalf("sample %d out of support", v)
		}
		if v <= 199 {
			inFirst++
		}
	}
	if inFirst < 800 || inFirst > 1200 {
		t.Fatalf("first-piece sample count %d far from 1000", inFirst)
	}
}

func TestSampleIn(t *testing.T) {
	d := Uniform(16)
	rng := rand.New(rand.NewSource(2))
	v, ok := d.SampleIn(rng, 1000, 1010)
	if !ok || v < 1000 || v > 1010 {
		t.Fatalf("SampleIn out of range: %d ok=%v", v, ok)
	}
	if _, ok := Point(5).SampleIn(rng, 6, 10); ok {
		t.Fatal("SampleIn on empty support should fail")
	}
}

func TestOracleProfile(t *testing.T) {
	p := NewProfile().
		SetField("proto", MustFromPieces([]Piece{{Lo: 6, Hi: 6, Mass: 0.9}, {Lo: 17, Hi: 17, Mass: 0.1}})).
		SetPairEq("seq", 0.01)
	if d, ok := p.FieldDist("proto"); !ok || !almostEq(d.P(6), 0.9, 1e-12) {
		t.Fatal("profile field lookup failed")
	}
	if _, ok := p.FieldDist("nope"); ok {
		t.Fatal("unknown field should report !ok")
	}
	if pe, ok := p.PairEqualProb("seq"); !ok || pe != 0.01 {
		t.Fatal("pair-eq lookup failed")
	}
	if p.QueryCount() != 3 {
		t.Fatalf("query count = %d", p.QueryCount())
	}
}

func TestUniformOracle(t *testing.T) {
	var u UniformOracle
	if _, ok := u.FieldDist("x"); ok {
		t.Fatal("uniform oracle should know nothing")
	}
	if _, ok := u.PairEqualProb("x"); ok {
		t.Fatal("uniform oracle should know nothing")
	}
	if u.QueryCount() != 2 {
		t.Fatal("query counting broken")
	}
}

// Property: MassIn is additive over a split point.
func TestMassAdditivity(t *testing.T) {
	d := MustFromPieces([]Piece{{Lo: 0, Hi: 999, Mass: 0.25}, {Lo: 2000, Hi: 2999, Mass: 0.75}})
	check := func(cut uint16) bool {
		c := uint64(cut) % 3000
		left := d.MassIn(0, c)
		right := 0.0
		if c < 2999 {
			right = d.MassIn(c+1, 2999)
		}
		return almostEq(left+right, 1, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: CollisionMass is between 1/support and 1.
func TestCollisionMassBounds(t *testing.T) {
	check := func(span uint8) bool {
		hi := uint64(span)%100 + 1
		d := UniformRange(0, hi)
		cm := d.CollisionMass()
		return almostEq(cm, 1/(float64(hi)+1), 1e-12)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// linearSample is the piece scan Sampler replaced, kept as the reference:
// running sums in piece order, the first piece whose sum reaches u, the
// last piece as the fallback.
func linearSample(d Dist, rng *rand.Rand) uint64 {
	u := rng.Float64()
	acc := 0.0
	for _, p := range d.Pieces {
		acc += p.Mass
		if u <= acc || p.Hi == d.Pieces[len(d.Pieces)-1].Hi {
			span := p.Hi - p.Lo
			if span == ^uint64(0) {
				return rng.Uint64()
			}
			return p.Lo + uint64(rng.Int63n(int64(minU(span+1, 1<<62))))
		}
	}
	return 0
}

// fuzzDist decodes sorted, non-overlapping pieces from bytes, three per
// piece: a gap before it, a width exponent and a mass. A zero mass byte
// gives a zero-mass piece and a high one a heavy piece, so skewed and
// zero-mass shapes come up; masses are not normalized, so the fallback to
// the last piece is reached too. A width exponent of 64 makes the piece
// span the full 64-bit domain (only possible as a lone piece at 0).
func fuzzDist(spec []byte) Dist {
	var pieces []Piece
	next := uint64(0)
	for i := 0; i+2 < len(spec) && len(pieces) < 16; i += 3 {
		if spec[i+1]%65 == 64 && len(pieces) == 0 && spec[i] == 0 {
			pieces = append(pieces, Piece{Lo: 0, Hi: ^uint64(0), Mass: float64(spec[i+2]) / 255})
			break
		}
		lo := next + uint64(spec[i])
		width := uint64(1) << (spec[i+1] % 40)
		hi := lo + width - 1
		if hi < lo || lo < next {
			break
		}
		m := float64(spec[i+2]) / 255
		m *= m * m // cube: skew toward a few heavy pieces
		pieces = append(pieces, Piece{Lo: lo, Hi: hi, Mass: m})
		if hi == ^uint64(0) {
			break
		}
		next = hi + 1
	}
	return Dist{Pieces: pieces}
}

// FuzzSamplerMatchesLinearScan pins Sampler to the linear scan: for the same
// seed both draw the same values, on skewed, zero-mass, one-piece and empty
// distributions alike.
func FuzzSamplerMatchesLinearScan(f *testing.F) {
	f.Add(int64(1), []byte{0, 8, 255})                               // one piece
	f.Add(int64(2), []byte{0, 64, 255})                              // full 64-bit domain
	f.Add(int64(3), []byte{0, 4, 0, 1, 4, 255, 0, 4, 0})             // zero-mass neighbours
	f.Add(int64(4), []byte{0, 1, 255, 3, 20, 10, 7, 2, 5, 0, 30, 1}) // skewed
	f.Add(int64(5), []byte{})                                        // empty
	f.Add(int64(6), []byte{0, 2, 40, 0, 2, 40, 0, 2, 40})            // mass below 1: fallback
	f.Fuzz(func(t *testing.T, seed int64, spec []byte) {
		d := fuzzDist(spec)
		s := d.Sampler()
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			if g, w := s.Sample(got), linearSample(d, want); g != w {
				t.Fatalf("draw %d: sampler %d, linear scan %d (pieces %v)", i, g, w, d.Pieces)
			}
		}
	})
}
