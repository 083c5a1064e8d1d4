package mc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/solver"
	"repro/internal/testutil"
)

func sp() *solver.Space {
	return solver.NewSpace([]ir.Field{
		{Name: "a", Bits: 8}, {Name: "b", Bits: 8}, {Name: "c", Bits: 8},
		{Name: "w", Bits: 16},
	})
}

func v(pkt int, f string) solver.Var { return solver.Var{Pkt: pkt, Field: f} }

func con(op ir.CmpOp, a, b solver.LinExpr) solver.Constraint { return solver.NewCmp(op, a, b) }

func almostEq(a, b, tol float64) bool { return testutil.ApproxEqual(a, b, tol, 0) }

func TestUniformInterval(t *testing.T) {
	c := NewCounter(sp(), nil)
	// a <= 63 over an 8-bit field: 64/256 = 0.25.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.ConstExpr(63)),
	})
	if !almostEq(p.Float(), 0.25, 1e-9) {
		t.Fatalf("P = %v, want 0.25", p.Float())
	}
}

func TestEmptyConjunction(t *testing.T) {
	c := NewCounter(sp(), nil)
	if got := c.ProbOf(nil).Float(); got != 1 {
		t.Fatalf("empty pc should have probability 1, got %v", got)
	}
}

func TestInfeasible(t *testing.T) {
	c := NewCounter(sp(), nil)
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpGt, solver.VarExpr(v(0, "a")), solver.ConstExpr(100)),
		con(ir.CmpLt, solver.VarExpr(v(0, "a")), solver.ConstExpr(50)),
	})
	if !p.IsZero() {
		t.Fatalf("infeasible pc should be zero, got %v", p)
	}
}

func TestConjunctionIndependentFields(t *testing.T) {
	c := NewCounter(sp(), nil)
	// P(a == 5) * P(b <= 127) = (1/256)*(1/2).
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.ConstExpr(5)),
		con(ir.CmpLe, solver.VarExpr(v(0, "b")), solver.ConstExpr(127)),
	})
	want := (1.0 / 256) * 0.5
	if !almostEq(p.Float(), want, 1e-12) {
		t.Fatalf("P = %v, want %v", p.Float(), want)
	}
}

func TestCrossPacketEqualityUniform(t *testing.T) {
	c := NewCounter(sp(), nil)
	// P(p0.a == p1.a) under independence/uniform = 1/256.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.VarExpr(v(1, "a"))),
	})
	if !almostEq(p.Float(), 1.0/256, 1e-12) {
		t.Fatalf("P = %v, want 1/256", p.Float())
	}
	// Three-way equality: 1/256^2.
	p3 := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.VarExpr(v(1, "a"))),
		con(ir.CmpEq, solver.VarExpr(v(1, "a")), solver.VarExpr(v(2, "a"))),
	})
	if !almostEq(p3.Float(), 1.0/(256*256), 1e-14) {
		t.Fatalf("P3 = %v, want 1/65536", p3.Float())
	}
}

func TestCrossPacketEqualityOracle(t *testing.T) {
	// A trace oracle reporting a 1% retransmission (pair-equality) ratio.
	profile := dist.NewProfile().SetPairEq("a", 0.01)
	c := NewCounter(sp(), profile)
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.VarExpr(v(1, "a"))),
	})
	if !almostEq(p.Float(), 0.01, 1e-9) {
		t.Fatalf("P = %v, want 0.01", p.Float())
	}
}

func TestSkewedMarginal(t *testing.T) {
	profile := dist.NewProfile().SetField("a", dist.MustFromPieces([]dist.Piece{
		{Lo: 6, Hi: 6, Mass: 0.9}, {Lo: 17, Hi: 17, Mass: 0.1},
	}))
	c := NewCounter(sp(), profile)
	pTCP := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.ConstExpr(6)),
	})
	if !almostEq(pTCP.Float(), 0.9, 1e-12) {
		t.Fatalf("P(tcp) = %v", pTCP.Float())
	}
	pOther := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "a")), solver.ConstExpr(7)),
	})
	if !pOther.IsZero() {
		t.Fatalf("P(proto 7) should be 0 under the profile, got %v", pOther)
	}
}

func TestDisequality(t *testing.T) {
	c := NewCounter(sp(), nil)
	// P(a != 5) = 255/256.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpNe, solver.VarExpr(v(0, "a")), solver.ConstExpr(5)),
	})
	if !almostEq(p.Float(), 255.0/256, 1e-12) {
		t.Fatalf("P = %v", p.Float())
	}
	// P(a != b) = 1 - 1/256.
	p2 := c.ProbOf([]solver.Constraint{
		con(ir.CmpNe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	})
	if !almostEq(p2.Float(), 255.0/256, 1e-9) {
		t.Fatalf("P(a!=b) = %v", p2.Float())
	}
}

func TestVarVarInequality(t *testing.T) {
	c := NewCounter(sp(), nil)
	// P(a < b) over two uniform 8-bit fields = C(256,2)/256^2.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpLt, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	})
	want := (256.0 * 255 / 2) / (256.0 * 256)
	if !almostEq(p.Float(), want, 1e-9) {
		t.Fatalf("P(a<b) = %v, want %v", p.Float(), want)
	}
	// P(a <= b) = (C(256,2)+256)/256^2.
	p2 := c.ProbOf([]solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	})
	want2 := (256.0*255/2 + 256) / (256.0 * 256)
	if !almostEq(p2.Float(), want2, 1e-9) {
		t.Fatalf("P(a<=b) = %v, want %v", p2.Float(), want2)
	}
}

func TestBandConstraint(t *testing.T) {
	c := NewCounter(sp(), nil)
	// |a - b| <= 1: 256 + 2*255 pairs.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b")).Add(solver.ConstExpr(1))),
		con(ir.CmpGe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b")).Sub(solver.ConstExpr(1))),
	})
	want := (256.0 + 2*255) / (256.0 * 256)
	if !almostEq(p.Float(), want, 1e-9) {
		t.Fatalf("P(|a-b|<=1) = %v, want %v", p.Float(), want)
	}
}

func TestPairWithNeqCorrection(t *testing.T) {
	c := NewCounter(sp(), nil)
	// a <= b and a != b: (C(256,2)) pairs.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
		con(ir.CmpNe, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	})
	want := (256.0 * 255 / 2) / (256.0 * 256)
	if !almostEq(p.Float(), want, 1e-9) {
		t.Fatalf("P = %v, want %v", p.Float(), want)
	}
}

func TestMonteCarloFallback(t *testing.T) {
	c := NewCounter(sp(), nil)
	c.Seed = 7
	// a + b <= 255 is generic: exact answer is (257*256/2)/256^2 ≈ 0.502.
	p := c.ProbOf([]solver.Constraint{
		solver.NewCmp(ir.CmpLe,
			solver.VarExpr(v(0, "a")).Add(solver.VarExpr(v(0, "b"))),
			solver.ConstExpr(255)),
	})
	want := (257.0 * 256 / 2) / (256.0 * 256)
	if !testutil.ApproxEqual(p.Float(), want, 0.02, 0) {
		t.Fatalf("MC estimate %v too far from %v", p.Float(), want)
	}
	if c.Stats().MCFallbacks == 0 {
		t.Fatal("expected an MC fallback")
	}
}

func TestMonteCarloDeterminism(t *testing.T) {
	mk := func() float64 {
		c := NewCounter(sp(), nil)
		c.Seed = 42
		c.DisableCache = true
		p := c.ProbOf([]solver.Constraint{
			solver.NewCmp(ir.CmpLe,
				solver.VarExpr(v(0, "a")).Add(solver.VarExpr(v(0, "b"))),
				solver.ConstExpr(100)),
		})
		return p.Float()
	}
	if mk() != mk() {
		t.Fatal("MC fallback should be deterministic for a fixed seed")
	}
}

func TestCache(t *testing.T) {
	c := NewCounter(sp(), nil)
	cs := []solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.ConstExpr(10)),
	}
	p1 := c.ProbOf(cs)
	p2 := c.ProbOf(cs)
	if p1.Cmp(p2) != 0 {
		t.Fatal("cached result differs")
	}
	if c.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", c.Stats().CacheHits)
	}
}

func TestCountPairsGeometry(t *testing.T) {
	// Brute-force cross-check on small rectangles.
	brute := func(a0, a1, b0, b1 uint64, dlo, dhi int64) float64 {
		n := 0
		for x := a0; x <= a1; x++ {
			for y := b0; y <= b1; y++ {
				d := int64(x) - int64(y)
				if d >= dlo && d <= dhi {
					n++
				}
			}
		}
		return float64(n)
	}
	cases := []struct {
		a0, a1, b0, b1 uint64
		dlo, dhi       int64
	}{
		{0, 9, 0, 9, -3, 3},
		{0, 9, 5, 14, 0, 0},
		{3, 20, 0, 7, -100, 2},
		{0, 15, 0, 15, 1, 100},
		{0, 5, 10, 12, -2, 2},
		{7, 7, 7, 7, 0, 0},
		{0, 30, 10, 20, -5, -5},
	}
	for _, tc := range cases {
		got := countPairs(tc.a0, tc.a1, tc.b0, tc.b1, tc.dlo, tc.dhi)
		want := brute(tc.a0, tc.a1, tc.b0, tc.b1, tc.dlo, tc.dhi)
		if got != want {
			t.Errorf("countPairs(%v)=%v want %v", tc, got, want)
		}
	}
}

func TestCountPairsRandomized(t *testing.T) {
	brute := func(a0, a1, b0, b1 uint64, dlo, dhi int64) float64 {
		n := 0
		for x := a0; x <= a1; x++ {
			for y := b0; y <= b1; y++ {
				d := int64(x) - int64(y)
				if d >= dlo && d <= dhi {
					n++
				}
			}
		}
		return float64(n)
	}
	seed := int64(12345)
	rnd := func() uint64 { seed = seed*6364136223846793005 + 1442695040888963407; return uint64(seed>>33) % 40 }
	for i := 0; i < 500; i++ {
		a0 := rnd()
		a1 := a0 + rnd()
		b0 := rnd()
		b1 := b0 + rnd()
		dlo := int64(rnd()) - 20
		dhi := dlo + int64(rnd())
		got := countPairs(a0, a1, b0, b1, dlo, dhi)
		want := brute(a0, a1, b0, b1, dlo, dhi)
		if got != want {
			t.Fatalf("case %d: countPairs(%d,%d,%d,%d,%d,%d)=%v want %v", i, a0, a1, b0, b1, dlo, dhi, got, want)
		}
	}
}

func TestHolePunching(t *testing.T) {
	segs := []wseg{{lo: 0, hi: 9, dens: 0.1}}
	out := punchHoles(segs, []uint64{3, 7})
	total := 0.0
	for _, s := range out {
		total += s.dens * (float64(s.hi-s.lo) + 1)
	}
	if !almostEq(total, 0.8, 1e-12) {
		t.Fatalf("after punching two holes mass = %v, want 0.8", total)
	}
}

func TestForceMCAgreesWithExact(t *testing.T) {
	cs := []solver.Constraint{
		con(ir.CmpLt, solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b"))),
	}
	exact := NewCounter(sp(), nil)
	pe := exact.ProbOf(cs).Float()
	mcc := NewCounter(sp(), nil)
	mcc.ForceMC = true
	mcc.Seed = 3
	pm := mcc.ProbOf(cs).Float()
	if !testutil.ApproxEqual(pe, pm, 0.02, 0) {
		t.Fatalf("exact %v vs MC %v diverge", pe, pm)
	}
}

func TestMaskedDistExact(t *testing.T) {
	// Skewed tcp_flags: 60% pure SYN (0x02), 40% pure ACK (0x10).
	profile := dist.NewProfile().SetField("tcp_flags", dist.MustFromPieces([]dist.Piece{
		{Lo: 0x02, Hi: 0x02, Mass: 0.6}, {Lo: 0x10, Hi: 0x10, Mass: 0.4},
	}))
	c := NewCounter(solver.NewSpace([]ir.Field{{Name: "tcp_flags", Bits: 8}}), profile)
	// P((flags & 0x02) == 0x02) must be exactly the SYN share.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "tcp_flags&2")), solver.ConstExpr(2)),
	})
	if !almostEq(p.Float(), 0.6, 1e-9) {
		t.Fatalf("P(masked SYN) = %v, want 0.6", p.Float())
	}
}

func TestMaskedDistUniformBase(t *testing.T) {
	c := NewCounter(solver.NewSpace([]ir.Field{{Name: "tcp_flags", Bits: 8}}), nil)
	// Uniform 8-bit flags: each bit set with probability 1/2.
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "tcp_flags&18")), solver.ConstExpr(18)),
	})
	if !almostEq(p.Float(), 0.25, 1e-9) {
		t.Fatalf("P(two masked bits) = %v, want 0.25", p.Float())
	}
}

func TestMaskedDistWideBaseSubmasks(t *testing.T) {
	// 32-bit base falls back to the submask-uniform model.
	c := NewCounter(solver.NewSpace([]ir.Field{{Name: "dst_ip", Bits: 32}}), nil)
	p := c.ProbOf([]solver.Constraint{
		con(ir.CmpEq, solver.VarExpr(v(0, "dst_ip&3")), solver.ConstExpr(0)),
	})
	if !almostEq(p.Float(), 0.25, 1e-9) {
		t.Fatalf("P(two wide bits clear) = %v, want 0.25", p.Float())
	}
}

// TestWideFieldProbability pins the field-width limit: P(w0 <= w1) over two
// uniform fields is 1/2 + 2^-(bits+1), and a width the counter cannot count
// right must fail when the program is built instead of returning a wrong
// number.
func TestWideFieldProbability(t *testing.T) {
	for _, bits := range []int{32, 61, 62, 63, 64} {
		fields := []ir.Field{{Name: "w", Bits: bits}}
		prog := &ir.Program{Name: "wide", Fields: fields, Root: ir.Body()}
		if _, err := prog.Build(); err != nil {
			if bits <= ir.MaxFieldBits {
				t.Fatalf("%d bits: Build: %v", bits, err)
			}
			continue
		}
		c := NewCounter(solver.NewSpace(fields), nil)
		p := c.ProbOf([]solver.Constraint{
			con(ir.CmpLe, solver.VarExpr(v(0, "w")), solver.VarExpr(v(1, "w"))),
		})
		if !testutil.ApproxEqual(p.Float(), 0.5, 1e-9, 0) {
			t.Errorf("%d bits: P(w0 <= w1) = %v, want 0.5", bits, p.Float())
		}
	}
}

// skewedPoints gives every value of a bits-wide field its own piece, with
// masses drawn from rng: 0–9 each, so some values carry no mass at all.
func skewedPoints(rng *rand.Rand, bits int) dist.Dist {
	var pieces []dist.Piece
	for x := uint64(0); x < 1<<bits; x++ {
		pieces = append(pieces, dist.Piece{Lo: x, Hi: x, Mass: float64(rng.Intn(10))})
	}
	pieces[rng.Intn(len(pieces))].Mass = 10
	return dist.MustFromPieces(pieces)
}

// TestThreeFieldConjunctionsMatchEnumeration counts conjunctions over three
// fields x, y, z of 2–4 bits under skewed per-value marginals, against
// weighted enumeration of the whole domain. Answers that need no
// Monte-Carlo fallback must match it up to float rounding. ForceMC
// estimates must lie within five binomial standard deviations of it: with
// class mass B and enumerated P an estimate's variance is
// B·P·(1−P/B)/n <= P(1−P)/n.
func TestThreeFieldConjunctionsMatchEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	names := [3]string{"x", "y", "z"}
	const trials = 250
	exact := 0
	for trial := 0; trial < trials; trial++ {
		var fields []ir.Field
		var width [3]int
		var marg [3]dist.Dist
		profile := dist.NewProfile()
		for i, name := range names {
			width[i] = 2 + rng.Intn(3)
			marg[i] = skewedPoints(rng, width[i])
			fields = append(fields, ir.Field{Name: name, Bits: width[i]})
			profile.SetField(name, marg[i])
		}
		cmps := make([]threeCmp, 1+rng.Intn(4))
		cs := make([]solver.Constraint, len(cmps))
		for i := range cmps {
			cmps[i] = randThreeCmp(rng, width)
			cs[i] = cmps[i].constraint(names)
		}

		want := 0.0
		var val [3]int64
		for val[0] = 0; val[0] < 1<<width[0]; val[0]++ {
			for val[1] = 0; val[1] < 1<<width[1]; val[1]++ {
				for val[2] = 0; val[2] < 1<<width[2]; val[2]++ {
					ok := true
					for _, cm := range cmps {
						ok = ok && cm.holds(val)
					}
					if ok {
						want += marg[0].P(uint64(val[0])) * marg[1].P(uint64(val[1])) * marg[2].P(uint64(val[2]))
					}
				}
			}
		}

		space := solver.NewSpace(fields)
		c := NewCounter(space, profile)
		if got := c.ProbOf(cs).Float(); c.Stats().MCFallbacks == 0 {
			exact++
			if !testutil.ApproxEqual(got, want, 1e-12, 1e-9) {
				t.Errorf("trial %d %v: exact ProbOf = %v, enumeration = %v", trial, cs, got, want)
			}
		}
		m := NewCounter(space, profile)
		m.ForceMC = true
		m.Seed = int64(trial)
		est := m.ProbOf(cs).Float()
		sd := math.Sqrt(want * (1 - want) / float64(m.MCSamples))
		if !testutil.ApproxEqual(est, want, 5*sd+1e-12, 1e-9) {
			t.Errorf("trial %d %v: ForceMC estimate = %v, enumeration = %v (5σ = %v)", trial, cs, est, want, 5*sd)
		}
	}
	if exact < 50 || trials-exact < 50 {
		t.Fatalf("%d trials counted exactly, %d fell back to Monte Carlo; want at least 50 of each", exact, trials-exact)
	}
}

// threeCmp is one comparison of TestThreeFieldConjunctionsMatchEnumeration:
// field lhs op (rhs field, if rhs >= 0) + (sum field, if sum >= 0) + k.
type threeCmp struct {
	op       ir.CmpOp
	lhs      int
	rhs, sum int
	k        int64
}

func randThreeCmp(rng *rand.Rand, width [3]int) threeCmp {
	ops := [...]ir.CmpOp{ir.CmpEq, ir.CmpNe, ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe}
	c := threeCmp{op: ops[rng.Intn(len(ops))], lhs: rng.Intn(3), rhs: -1, sum: -1}
	switch rng.Intn(4) {
	case 0: // against a constant one past each end of the domain
		c.k = int64(rng.Intn(1<<width[c.lhs]+2)) - 1
	case 1, 2: // against another field
		c.rhs = (c.lhs + 1 + rng.Intn(2)) % 3
		c.k = int64(rng.Intn(7)) - 3
	default: // against the sum of the other two
		c.rhs, c.sum = (c.lhs+1)%3, (c.lhs+2)%3
		c.k = int64(rng.Intn(7)) - 3
	}
	return c
}

func (c threeCmp) holds(val [3]int64) bool {
	rhs := c.k
	if c.rhs >= 0 {
		rhs += val[c.rhs]
	}
	if c.sum >= 0 {
		rhs += val[c.sum]
	}
	return solver.CmpZero(c.op, val[c.lhs]-rhs)
}

func (c threeCmp) constraint(names [3]string) solver.Constraint {
	rhs := solver.ConstExpr(c.k)
	if c.rhs >= 0 {
		rhs = rhs.Add(solver.VarExpr(v(0, names[c.rhs])))
	}
	if c.sum >= 0 {
		rhs = rhs.Add(solver.VarExpr(v(0, names[c.sum])))
	}
	return con(c.op, solver.VarExpr(v(0, names[c.lhs])), rhs)
}

// mcComponent builds a three-root component only Monte Carlo can count:
// a difference chain a < b <= c, a disequality, a hole and a generic sum,
// with a skewed marginal on a.
func mcComponent(t testing.TB) (*Counter, *solver.System, component) {
	profile := dist.NewProfile().SetField("a", dist.MustFromPieces([]dist.Piece{
		{Lo: 0, Hi: 15, Mass: 0.5}, {Lo: 16, Hi: 99, Mass: 0.3}, {Lo: 100, Hi: 255, Mass: 0.2},
	}))
	c := NewCounter(sp(), profile)
	a, b, cc := solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b")), solver.VarExpr(v(0, "c"))
	sys := solver.Build([]solver.Constraint{
		con(ir.CmpLt, a, b),
		con(ir.CmpLe, b, cc),
		con(ir.CmpNe, a, cc.Sub(solver.ConstExpr(2))),
		con(ir.CmpNe, b, solver.ConstExpr(40)),
		con(ir.CmpLe, a.Add(b).Add(cc), solver.ConstExpr(400)),
	}, c.Space)
	comps := components(sys)
	if !sys.Feasible || len(comps) != 1 || len(comps[0].roots) != 3 {
		t.Fatalf("want one feasible three-root component, got %d components", len(comps))
	}
	return c, sys, comps[0]
}

// TestMonteCarloAllocsIndependentOfSamples pins the allocation-free sample
// loop: an estimate allocates the same at 1 000 and at 20 000 samples.
func TestMonteCarloAllocsIndependentOfSamples(t *testing.T) {
	c, sys, comp := mcComponent(t)
	allocs := func(samples int) float64 {
		c.MCSamples = samples
		return testing.AllocsPerRun(5, func() { c.monteCarlo(sys, comp) })
	}
	if few, many := allocs(1000), allocs(20000); few != many {
		t.Fatalf("monteCarlo allocates %v times at 1000 samples but %v at 20000", few, many)
	}
}

func BenchmarkMonteCarlo(b *testing.B) {
	c, sys, comp := mcComponent(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.monteCarlo(sys, comp)
	}
}

func BenchmarkModelCount(b *testing.B) {
	c := NewCounter(solver.NewSpace(ir.StdFields), nil)
	c.DisableCache = true
	cs := []solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "src_port")), solver.ConstExpr(80)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ProbOf(cs)
	}
}
