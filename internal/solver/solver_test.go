package solver

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func space16() *Space {
	return NewSpace([]ir.Field{{Name: "a", Bits: 16}, {Name: "b", Bits: 16}, {Name: "c", Bits: 16}})
}

func v(pkt int, f string) Var { return Var{Pkt: pkt, Field: f} }

func cmp(op ir.CmpOp, a LinExpr, b LinExpr) Constraint { return NewCmp(op, a, b) }

func TestIntervalBasics(t *testing.T) {
	iv := Interval{10, 20}
	if iv.Empty() || iv.Size() != 11 {
		t.Fatalf("interval size = %v", iv.Size())
	}
	if !iv.Contains(10) || !iv.Contains(20) || iv.Contains(21) || iv.Contains(9) {
		t.Fatal("contains wrong")
	}
	got := iv.Intersect(Interval{15, 30})
	if got != (Interval{15, 20}) {
		t.Fatalf("intersect = %+v", got)
	}
	if !(Interval{5, 3}).Empty() {
		t.Fatal("5..3 should be empty")
	}
}

func TestIntervalShift(t *testing.T) {
	iv := Interval{10, 20}
	if got := iv.Shift(5); got != (Interval{15, 25}) {
		t.Fatalf("shift +5 = %+v", got)
	}
	if got := iv.Shift(-5); got != (Interval{5, 15}) {
		t.Fatalf("shift -5 = %+v", got)
	}
	if got := iv.Shift(-15); got != (Interval{0, 5}) {
		t.Fatalf("shift -15 (clamped) = %+v", got)
	}
	if got := iv.Shift(-25); !got.Empty() {
		t.Fatalf("shift -25 should be empty, got %+v", got)
	}
}

func TestLinExprCanon(t *testing.T) {
	a := VarExpr(v(0, "a"))
	e := a.Add(a).Sub(a.Scale(2)) // 2a - 2a = 0
	if !e.IsConst() || e.K != 0 {
		t.Fatalf("canon failed: %v", e)
	}
	e2 := a.Add(ConstExpr(3)).Sub(VarExpr(v(0, "b")))
	if len(e2.Terms) != 2 || e2.K != 3 {
		t.Fatalf("e2 = %v", e2)
	}
}

// subCoefs are the coefficient and constant picks for FuzzSubMatchesAddScale:
// small values that cancel, and the extremes where negation and
// subtraction wrap.
var subCoefs = [...]int64{1, -1, 2, -2, 7, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}

// decodeSubExpr builds a canonical expression from bytes, two per term (a
// variable pick over three packets and four fields, and a coefficient
// pick), summed with Add so repeated variables merge or cancel.
func decodeSubExpr(k byte, spec []byte) LinExpr {
	fields := [...]string{"a", "b", "ab", "tcp_flags&18"}
	e := ConstExpr(subCoefs[int(k)%len(subCoefs)] + int64(k))
	for i := 0; i+1 < len(spec) && i < 16; i += 2 {
		x := VarExpr(v(int(spec[i]/4)%3, fields[spec[i]%4]))
		e = e.Add(x.Scale(subCoefs[int(spec[i+1])%len(subCoefs)]))
	}
	return e
}

// FuzzSubMatchesAddScale pins the merge in Sub to the composition it
// replaced, e.Add(o.Scale(-1)): the same terms, constant and nil-ness.
func FuzzSubMatchesAddScale(f *testing.F) {
	f.Add(byte(0), []byte{}, byte(1), []byte{})                 // constants only
	f.Add(byte(0), []byte{0, 0}, byte(0), []byte{0, 0})         // x − x cancels
	f.Add(byte(2), []byte{0, 0, 5, 2}, byte(3), []byte{1, 1})   // disjoint variables
	f.Add(byte(6), []byte{4, 6, 1, 5}, byte(5), []byte{4, 6})   // MinInt64 coefficients wrap
	f.Add(byte(1), []byte{9, 2, 2, 0, 3, 1}, byte(0), []byte{}) // subtract a constant
	f.Fuzz(func(t *testing.T, ka byte, a []byte, kb byte, b []byte) {
		x, y := decodeSubExpr(ka, a), decodeSubExpr(kb, b)
		if got, want := x.Sub(y), x.Add(y.Scale(-1)); !reflect.DeepEqual(got, want) {
			t.Fatalf("(%v) − (%v): merge %#v, Add/Scale %#v", x, y, got, want)
		}
	})
}

// TestConstraintString pins the rendering: the Monte-Carlo counter seeds
// its RNG from these strings, so changing one changes every estimate.
func TestConstraintString(t *testing.T) {
	a, b, c := VarExpr(v(0, "a")), VarExpr(v(12, "tcp_flags&18")), VarExpr(v(3, "c"))
	for _, tc := range []struct {
		con  Constraint
		want string
	}{
		{cmp(ir.CmpLe, a, b), "p0.a-p12.tcp_flags&18 <= 0"},
		{cmp(ir.CmpNe, a.Scale(2).Add(c.Scale(-3)), ConstExpr(-7)), "2*p0.a-3*p3.c+7 != 0"},
		{cmp(ir.CmpGt, c, ConstExpr(5)), "p3.c-5 > 0"},
		{Constraint{E: ConstExpr(0), Op: ir.CmpEq}, "0 == 0"},
		{Constraint{E: b.Scale(-4).Add(ConstExpr(9)), Op: ir.CmpGe}, "-4*p12.tcp_flags&18+9 >= 0"},
	} {
		if got := tc.con.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestSolveSimpleBounds(t *testing.T) {
	sp := space16()
	cs := []Constraint{
		cmp(ir.CmpGe, VarExpr(v(0, "a")), ConstExpr(100)),
		cmp(ir.CmpLt, VarExpr(v(0, "a")), ConstExpr(200)),
	}
	asn, ok := Solve(cs, sp, SolveOptions{})
	if !ok {
		t.Fatal("expected SAT")
	}
	if got := asn[v(0, "a")]; got < 100 || got >= 200 {
		t.Fatalf("witness %d out of range", got)
	}
}

func TestSolveContradiction(t *testing.T) {
	sp := space16()
	cs := []Constraint{
		cmp(ir.CmpGt, VarExpr(v(0, "a")), ConstExpr(100)),
		cmp(ir.CmpLt, VarExpr(v(0, "a")), ConstExpr(50)),
	}
	if _, ok := Solve(cs, sp, SolveOptions{}); ok {
		t.Fatal("expected UNSAT")
	}
	if Feasible(cs, sp) {
		t.Fatal("Feasible should detect interval contradiction")
	}
}

func TestSolveEqualityChain(t *testing.T) {
	sp := space16()
	// a == b, b == c + 5, c == 7  =>  a = b = 12, c = 7.
	cs := []Constraint{
		cmp(ir.CmpEq, VarExpr(v(0, "a")), VarExpr(v(0, "b"))),
		cmp(ir.CmpEq, VarExpr(v(0, "b")), VarExpr(v(0, "c")).Add(ConstExpr(5))),
		cmp(ir.CmpEq, VarExpr(v(0, "c")), ConstExpr(7)),
	}
	asn, ok := Solve(cs, sp, SolveOptions{})
	if !ok {
		t.Fatal("expected SAT")
	}
	if asn[v(0, "a")] != 12 || asn[v(0, "b")] != 12 || asn[v(0, "c")] != 7 {
		t.Fatalf("bad witness: %v", asn)
	}
}

func TestSolveEqualityContradiction(t *testing.T) {
	sp := space16()
	cs := []Constraint{
		cmp(ir.CmpEq, VarExpr(v(0, "a")), VarExpr(v(0, "b"))),
		cmp(ir.CmpEq, VarExpr(v(0, "a")), ConstExpr(1)),
		cmp(ir.CmpEq, VarExpr(v(0, "b")), ConstExpr(2)),
	}
	if Feasible(cs, sp) {
		t.Fatal("expected propagation to find contradiction")
	}
}

func TestSolveCrossPacketEquality(t *testing.T) {
	sp := space16()
	// Retransmission-style: p0.a == p1.a, p0.a == 42.
	cs := []Constraint{
		cmp(ir.CmpEq, VarExpr(v(0, "a")), VarExpr(v(1, "a"))),
		cmp(ir.CmpEq, VarExpr(v(0, "a")), ConstExpr(42)),
	}
	asn, ok := Solve(cs, sp, SolveOptions{})
	if !ok {
		t.Fatal("expected SAT")
	}
	if asn[v(0, "a")] != 42 || asn[v(1, "a")] != 42 {
		t.Fatalf("bad witness: %v", asn)
	}
}

func TestSolveDisequality(t *testing.T) {
	sp := space16()
	// a == 5 and a != 5 is UNSAT.
	cs := []Constraint{
		cmp(ir.CmpEq, VarExpr(v(0, "a")), ConstExpr(5)),
		cmp(ir.CmpNe, VarExpr(v(0, "a")), ConstExpr(5)),
	}
	if _, ok := Solve(cs, sp, SolveOptions{}); ok {
		t.Fatal("expected UNSAT")
	}
	// a in [5,6], a != 5 forces 6.
	cs2 := []Constraint{
		cmp(ir.CmpGe, VarExpr(v(0, "a")), ConstExpr(5)),
		cmp(ir.CmpLe, VarExpr(v(0, "a")), ConstExpr(6)),
		cmp(ir.CmpNe, VarExpr(v(0, "a")), ConstExpr(5)),
	}
	asn, ok := Solve(cs2, sp, SolveOptions{})
	if !ok || asn[v(0, "a")] != 6 {
		t.Fatalf("expected a=6, got %v ok=%v", asn, ok)
	}
}

func TestSolveVarVarDisequality(t *testing.T) {
	sp := space16()
	cs := []Constraint{
		cmp(ir.CmpEq, VarExpr(v(0, "a")), ConstExpr(9)),
		cmp(ir.CmpEq, VarExpr(v(0, "b")), ConstExpr(9)),
		cmp(ir.CmpNe, VarExpr(v(0, "a")), VarExpr(v(0, "b"))),
	}
	if _, ok := Solve(cs, sp, SolveOptions{}); ok {
		t.Fatal("expected UNSAT: both pinned to 9 but must differ")
	}
	cs2 := []Constraint{
		cmp(ir.CmpNe, VarExpr(v(0, "a")), VarExpr(v(0, "b"))),
	}
	asn, ok := Solve(cs2, sp, SolveOptions{})
	if !ok || asn[v(0, "a")] == asn[v(0, "b")] {
		t.Fatalf("expected distinct witness, got %v", asn)
	}
}

func TestSolveDifferenceConstraints(t *testing.T) {
	sp := space16()
	// a < b, b < c, c <= 2  =>  a=0,b=1,c=2 forced.
	cs := []Constraint{
		cmp(ir.CmpLt, VarExpr(v(0, "a")), VarExpr(v(0, "b"))),
		cmp(ir.CmpLt, VarExpr(v(0, "b")), VarExpr(v(0, "c"))),
		cmp(ir.CmpLe, VarExpr(v(0, "c")), ConstExpr(2)),
	}
	asn, ok := Solve(cs, sp, SolveOptions{})
	if !ok {
		t.Fatal("expected SAT")
	}
	if asn[v(0, "a")] != 0 || asn[v(0, "b")] != 1 || asn[v(0, "c")] != 2 {
		t.Fatalf("forced chain wrong: %v", asn)
	}
}

func TestSolveNegativeCycle(t *testing.T) {
	sp := space16()
	// a < b and b < a is a negative cycle.
	cs := []Constraint{
		cmp(ir.CmpLt, VarExpr(v(0, "a")), VarExpr(v(0, "b"))),
		cmp(ir.CmpLt, VarExpr(v(0, "b")), VarExpr(v(0, "a"))),
	}
	if Feasible(cs, sp) {
		t.Fatal("expected negative cycle to be infeasible")
	}
}

func TestSolveGenericResidue(t *testing.T) {
	sp := space16()
	// a + b == 10 is generic (two positive coefficients).
	cs := []Constraint{
		NewCmp(ir.CmpEq, VarExpr(v(0, "a")).Add(VarExpr(v(0, "b"))), ConstExpr(10)),
	}
	asn, ok := Solve(cs, sp, SolveOptions{Seed: 1})
	if !ok {
		t.Fatal("expected SAT for a+b==10")
	}
	if asn[v(0, "a")]+asn[v(0, "b")] != 10 {
		t.Fatalf("generic witness wrong: %v", asn)
	}
}

func TestSolveCoefficientBounds(t *testing.T) {
	sp := space16()
	// 3a == 12 => a == 4; 3a == 13 => UNSAT.
	cs := []Constraint{NewCmp(ir.CmpEq, VarExpr(v(0, "a")).Scale(3), ConstExpr(12))}
	asn, ok := Solve(cs, sp, SolveOptions{})
	if !ok || asn[v(0, "a")] != 4 {
		t.Fatalf("3a==12: got %v ok=%v", asn, ok)
	}
	cs2 := []Constraint{NewCmp(ir.CmpEq, VarExpr(v(0, "a")).Scale(3), ConstExpr(13))}
	if Feasible(cs2, sp) {
		t.Fatal("3a==13 should be infeasible")
	}
}

func TestSolveHoleExhaustion(t *testing.T) {
	sp := space16()
	cs := []Constraint{
		cmp(ir.CmpGe, VarExpr(v(0, "a")), ConstExpr(3)),
		cmp(ir.CmpLe, VarExpr(v(0, "a")), ConstExpr(4)),
		cmp(ir.CmpNe, VarExpr(v(0, "a")), ConstExpr(3)),
		cmp(ir.CmpNe, VarExpr(v(0, "a")), ConstExpr(4)),
	}
	if Feasible(cs, sp) {
		t.Fatal("all values excluded: should be infeasible")
	}
}

func TestSystemRootOf(t *testing.T) {
	sp := space16()
	cs := []Constraint{
		cmp(ir.CmpEq, VarExpr(v(0, "a")), VarExpr(v(0, "b")).Add(ConstExpr(3))),
	}
	sys := Build(cs, sp)
	ra, oa := sys.RootOf(v(0, "a"))
	rb, ob := sys.RootOf(v(0, "b"))
	if ra != rb {
		t.Fatal("a and b should share a root")
	}
	// val(a) = root+oa, val(b) = root+ob, and a = b+3 => oa-ob == 3.
	if oa-ob != 3 {
		t.Fatalf("offset difference = %d, want 3", oa-ob)
	}
}

// Property: any witness Solve returns satisfies every input constraint.
func TestSolveWitnessAlwaysSatisfies(t *testing.T) {
	sp := space16()
	fields := []string{"a", "b", "c"}
	ops := []ir.CmpOp{ir.CmpEq, ir.CmpNe, ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe}

	gen := func(seed int64) []Constraint {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		cs := make([]Constraint, 0, n)
		for i := 0; i < n; i++ {
			a := VarExpr(v(rng.Intn(2), fields[rng.Intn(3)]))
			var b LinExpr
			if rng.Intn(2) == 0 {
				b = ConstExpr(int64(rng.Intn(1000)))
			} else {
				b = VarExpr(v(rng.Intn(2), fields[rng.Intn(3)])).Add(ConstExpr(int64(rng.Intn(10))))
			}
			cs = append(cs, NewCmp(ops[rng.Intn(len(ops))], a, b))
		}
		return cs
	}

	check := func(seed int64) bool {
		cs := gen(seed)
		asn, ok := Solve(cs, sp, SolveOptions{Seed: seed})
		if !ok {
			return true // UNSAT claims are exercised elsewhere
		}
		for _, c := range cs {
			if !c.Holds(asn) {
				t.Logf("seed %d: constraint %v violated by %v", seed, c, asn)
				return false
			}
		}
		// Domains respected.
		for vr, val := range asn {
			if !sp.Domain(vr).Contains(val) {
				t.Logf("seed %d: %v=%d out of domain", seed, vr, val)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Feasible never rejects a system that Solve can solve.
func TestFeasibleNeverRejectsSAT(t *testing.T) {
	sp := space16()
	check := func(lo, span uint16) bool {
		hi := uint32(lo) + uint32(span)%1000
		cs := []Constraint{
			cmp(ir.CmpGe, VarExpr(v(0, "a")), ConstExpr(int64(lo))),
			cmp(ir.CmpLe, VarExpr(v(0, "a")), ConstExpr(int64(hi))),
		}
		_, ok := Solve(cs, sp, SolveOptions{})
		feas := Feasible(cs, sp)
		if ok && !feas {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolverSolve(b *testing.B) {
	space := NewSpace(ir.StdFields)
	cs := []Constraint{
		NewCmp(ir.CmpEq, VarExpr(Var{Pkt: 0, Field: "seq"}), VarExpr(Var{Pkt: 1, Field: "seq"})),
		NewCmp(ir.CmpGe, VarExpr(Var{Pkt: 0, Field: "src_port"}), ConstExpr(1024)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Solve(cs, space, SolveOptions{Seed: int64(i)}); !ok {
			b.Fatal("unsat")
		}
	}
}

// TestPropagateSaturatesWideBounds: a difference constraint over 64-bit
// fields, whose bounds do not fit in int64, must stay feasible and must not
// be cut down to MaxInt64.
func TestPropagateSaturatesWideBounds(t *testing.T) {
	space := NewSpace([]ir.Field{{Name: "w", Bits: 64}})
	x, y := v(0, "w"), v(1, "w")
	for _, op := range []ir.CmpOp{ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe} {
		sys := Build([]Constraint{NewCmp(op, VarExpr(x), VarExpr(y))}, space)
		if !sys.Feasible {
			t.Fatalf("w0 %v w1 at 64 bits: infeasible", op)
		}
		for r, iv := range sys.RootIv {
			if iv.Hi < math.MaxInt64 || iv.Lo > 1 {
				t.Fatalf("w0 %v w1: %v narrowed to [%d, %d]", op, r, iv.Lo, iv.Hi)
			}
		}
	}
}
