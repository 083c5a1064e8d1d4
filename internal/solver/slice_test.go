package solver

import (
	"reflect"
	"testing"

	"repro/internal/ir"
)

// fuzzVars names the fuzz targets' fields: five declared fields whose
// widths come from the input, and "u", which has no declared domain.
var fuzzVars = [...]string{"f0", "f1", "f2", "f3", "f4", "u"}

var fuzzOps = [...]ir.CmpOp{ir.CmpEq, ir.CmpNe, ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe}

// fuzzVar picks one of twelve variables, the six fields of packets 0 and 1:
// more than a normBuf holds inline.
func fuzzVar(b byte) Var { return Var{Pkt: int(b/6) % 2, Field: fuzzVars[b%6]} }

// decodeFeasibleFuzz turns fuzz bytes into a space and a conjunction of
// 1–16 constraints. Bytes 0–4 give the declared widths (2–8 bits), byte 5
// the constraint count, then five bytes per constraint: shape and operator,
// two variable picks, a coefficient pick and a signed constant. Missing
// bytes read as zero.
func decodeFeasibleFuzz(data []byte) (*Space, []Constraint) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	fields := make([]ir.Field, 5)
	for i := range fields {
		fields[i] = ir.Field{Name: fuzzVars[i], Bits: 2 + int(at(i)%7)}
	}
	sp := NewSpace(fields)
	coefs := [...]int64{-2, -1, 1, 2, 3}
	n := 1 + int(at(5)%16)
	cs := make([]Constraint, n)
	for i := range cs {
		b := 6 + 5*i
		shape, op := at(b)%5, fuzzOps[(at(b)/5)%6]
		x := VarExpr(fuzzVar(at(b + 1)))
		y := VarExpr(fuzzVar(at(b + 2)))
		z := VarExpr(fuzzVar(at(b+1) + at(b+2) + 1))
		c, k := coefs[at(b+3)%5], ConstExpr(int64(int8(at(b+4))))
		var e LinExpr
		switch shape {
		case 0: // unary c·x + k
			e = x.Scale(c).Add(k)
		case 1: // binary x − y + k
			e = x.Sub(y).Add(k)
		case 2: // binary equality: merges two classes
			e, op = x.Sub(y).Add(k), ir.CmpEq
		case 3: // generic residue
			e = x.Scale(c).Add(y).Sub(z).Add(k)
		default: // constant
			e = k
		}
		cs[i] = Constraint{E: e, Op: op}
	}
	return sp, cs
}

// fuzzCon is one constraint in decodeFeasibleFuzz's encoding; op indexes
// fuzzOps and coef indexes the coefficient picks (2 is 1).
type fuzzCon struct {
	shape, op, x, y, coef byte
	k                     int8
}

// encodeFeasibleFuzz builds a seed input for decodeFeasibleFuzz.
func encodeFeasibleFuzz(widths [5]byte, cons ...fuzzCon) []byte {
	data := append(widths[:], byte(len(cons)-1))
	for _, c := range cons {
		data = append(data, c.shape+5*c.op, c.x, c.y, c.coef, byte(c.k))
	}
	return data
}

// FuzzFeasibleFromMatchesFeasible checks the sliced check against the full
// one at every split point whose prefix is itself Build-feasible.
func FuzzFeasibleFromMatchesFeasible(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 11, 0, 1, 0, 255, 11, 1, 0, 2, 255}) // x < y, y < x
	f.Add([]byte{3, 3, 3, 3, 3, 2, 2, 0, 1, 0, 1, 25, 0, 0, 2, 5, 2, 2, 0, 0, 0})
	f.Add([]byte{6, 1, 6, 2, 6, 4, 3, 0, 5, 1, 3, 28, 1, 2, 0, 7, 0, 4, 4, 3, 250, 7, 2, 3, 0, 2})
	f.Add([]byte{1, 1, 1, 1, 1, 9, 5, 0, 0, 1, 3, 2, 1, 2, 0, 0, 17, 2, 3, 0, 1, 26, 3, 4, 2, 254, 8, 4, 5, 4, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, cs := decodeFeasibleFuzz(data)
		want := Feasible(cs, sp)
		for known := 0; known <= len(cs); known++ {
			if known > 0 && !Feasible(cs[:known], sp) {
				continue
			}
			if got := FeasibleFrom(cs, known, sp); got != want {
				t.Fatalf("FeasibleFrom(known=%d) = %v, Feasible = %v\nconstraints: %v\nslice: %v",
					known, got, want, cs, sliceFrom(nil, nil, cs, known))
			}
		}
	})
}

func TestFeasibleFromHandCases(t *testing.T) {
	sp := NewSpace([]ir.Field{{Name: "x", Bits: 8}, {Name: "y", Bits: 8}, {Name: "z", Bits: 8},
		{Name: "w", Bits: 8}, {Name: "s", Bits: 2}})
	x, y, z, w, s := VarExpr(v(0, "x")), VarExpr(v(0, "y")), VarExpr(v(0, "z")), VarExpr(v(0, "w")), VarExpr(v(0, "s"))
	c := ConstExpr
	cases := []struct {
		name  string
		cs    []Constraint
		known int
		want  bool
	}{
		{"negative diff cycle split across prefix and suffix", []Constraint{
			cmp(ir.CmpLt, x, y), cmp(ir.CmpLe, w, c(9)), cmp(ir.CmpLt, y, z), // x < y < z
			cmp(ir.CmpLe, z, x), // z <= x closes the cycle
		}, 3, false},
		{"positive cycle through the prefix stays feasible", []Constraint{
			cmp(ir.CmpLt, x, y), cmp(ir.CmpLt, y, z),
			cmp(ir.CmpLe, z, x.Add(c(5))),
		}, 2, true},
		{"equality merges a prefix class", []Constraint{
			cmp(ir.CmpEq, x, y.Add(c(1))), cmp(ir.CmpGe, x, c(5)), cmp(ir.CmpLe, z, c(3)), cmp(ir.CmpNe, w, c(0)),
			cmp(ir.CmpEq, z, y), // y = x-1 >= 4 but z <= 3
		}, 4, false},
		{"equality merge that fits", []Constraint{
			cmp(ir.CmpEq, x, y.Add(c(1))), cmp(ir.CmpGe, x, c(5)), cmp(ir.CmpLe, z, c(9)),
			cmp(ir.CmpEq, z, y),
		}, 3, true},
		{"holes exhaust a singleton", []Constraint{
			cmp(ir.CmpNe, s, c(3)), cmp(ir.CmpEq, s, w), cmp(ir.CmpLt, x, y),
			cmp(ir.CmpGe, w, c(3)), // s = w ∈ [3,3], and 3 is a hole
		}, 3, false},
		{"hole in an untouched class", []Constraint{
			cmp(ir.CmpNe, s, c(3)), cmp(ir.CmpLe, s, c(3)),
			cmp(ir.CmpGe, w, c(3)),
		}, 2, true},
		{"infeasible constant suffix", []Constraint{
			cmp(ir.CmpLt, x, y), cmp(ir.CmpLt, c(4), c(2)),
		}, 1, false},
		{"empty suffix", []Constraint{cmp(ir.CmpLt, x, y)}, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !Feasible(tc.cs[:tc.known], sp) {
				t.Fatal("prefix must be feasible")
			}
			if got := Feasible(tc.cs, sp); got != tc.want {
				t.Fatalf("Feasible = %v, want %v", got, tc.want)
			}
			if got := FeasibleFrom(tc.cs, tc.known, sp); got != tc.want {
				t.Fatalf("FeasibleFrom = %v, want %v (slice %v)", got, tc.want, sliceFrom(nil, nil, tc.cs, tc.known))
			}
		})
	}
}

// TestSliceFromFixpoint pins which prefix constraints the slice keeps: the
// chain p1.a → p0.a → b → c reaches c's constraints only after b == c
// has joined, which is a pass later than the backward scan sees them; the
// unconnected and constant prefix constraints stay out.
func TestSliceFromFixpoint(t *testing.T) {
	a, b, d := VarExpr(v(0, "a")), VarExpr(v(0, "b")), VarExpr(v(0, "c"))
	e, q := VarExpr(v(1, "a")), VarExpr(v(1, "q"))
	cs := []Constraint{
		cmp(ir.CmpNe, d, ConstExpr(7)),
		cmp(ir.CmpLe, q, ConstExpr(3)),
		cmp(ir.CmpLe, a, b.Add(ConstExpr(1))),
		cmp(ir.CmpEq, b, d),
		cmp(ir.CmpEq, e, a),
		cmp(ir.CmpLt, ConstExpr(1), ConstExpr(2)),
		cmp(ir.CmpGe, e, ConstExpr(2)), // the suffix
	}
	got := sliceFrom(nil, nil, cs, 6)
	want := []Constraint{cs[0], cs[2], cs[3], cs[4], cs[6]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slice = %v, want %v", got, want)
	}
}

func TestFeasibleFromCountsOneBuild(t *testing.T) {
	sp := space16()
	cs := []Constraint{cmp(ir.CmpLt, VarExpr(v(0, "a")), VarExpr(v(0, "b"))), cmp(ir.CmpGe, VarExpr(v(0, "c")), ConstExpr(1))}
	for known := 0; known <= len(cs); known++ {
		b0, f0 := metrics.builds.Load(), metrics.feasible.Load()
		FeasibleFrom(cs, known, sp)
		if db, df := metrics.builds.Load()-b0, metrics.feasible.Load()-f0; db != 1 || df != 1 {
			t.Fatalf("known=%d: %d builds, %d feasibility checks; want 1 and 1", known, db, df)
		}
	}
}

// FuzzBuildMatchesReference checks the index-based normalization against
// the map-based one it replaced (refBuild): Build must export the same
// System, infeasible ones included, and Feasible and FeasibleFrom must
// return the reference verdict at every prefix length.
func FuzzBuildMatchesReference(f *testing.F) {
	w2 := [5]byte{0, 0, 0, 0, 0} // 2-bit fields
	w8 := [5]byte{6, 6, 6, 6, 6} // 8-bit fields
	// Binary equalities: a class of three with offsets, bounded through a member.
	f.Add(encodeFeasibleFuzz(w8, fuzzCon{2, 0, 0, 1, 2, 1}, fuzzCon{2, 0, 1, 7, 2, -3},
		fuzzCon{0, 5, 7, 0, 2, -9}, fuzzCon{1, 2, 0, 2, 2, 0}))
	// Conflicting unions: f0 = f1 - 1 and f0 = f1 - 2.
	f.Add(encodeFeasibleFuzz(w8, fuzzCon{2, 0, 0, 1, 2, 1}, fuzzCon{2, 0, 0, 1, 2, 2},
		fuzzCon{0, 3, 0, 0, 2, -4}))
	// Unary != holes that use up a 2-bit domain, and a singleton.
	f.Add(encodeFeasibleFuzz(w2, fuzzCon{0, 1, 0, 0, 2, 0}, fuzzCon{0, 1, 0, 0, 2, -1},
		fuzzCon{0, 1, 0, 0, 2, -2}, fuzzCon{0, 1, 0, 0, 2, -3}, fuzzCon{0, 1, 0, 0, 2, -1}))
	f.Add(encodeFeasibleFuzz(w8, fuzzCon{0, 3, 1, 0, 2, -5}, fuzzCon{0, 5, 1, 0, 2, -5},
		fuzzCon{2, 0, 1, 2, 2, 0}, fuzzCon{0, 1, 2, 0, 2, -5}))
	// A negative difference cycle: f0 < f1 < f2 < f0.
	f.Add(encodeFeasibleFuzz(w8, fuzzCon{1, 2, 0, 1, 2, 0}, fuzzCon{1, 2, 1, 2, 2, 0},
		fuzzCon{0, 3, 3, 0, 2, -9}, fuzzCon{1, 2, 2, 0, 2, 0}))
	// Generic residue alongside a disequality.
	f.Add(encodeFeasibleFuzz(w8, fuzzCon{3, 0, 0, 1, 3, 4}, fuzzCon{3, 3, 2, 3, 0, -7},
		fuzzCon{1, 1, 0, 1, 2, 0}, fuzzCon{4, 3, 0, 0, 0, -1}))
	// Twelve variables, eleven diffs and five holes: past every inline array.
	var wide []fuzzCon
	for i := byte(0); i < 11; i++ {
		wide = append(wide, fuzzCon{1, 3, i, i + 1, 2, int8(i)})
	}
	for i := byte(0); i < 5; i++ {
		wide = append(wide, fuzzCon{0, 1, 2 * i, 0, 2, -int8(i)})
	}
	f.Add(encodeFeasibleFuzz(w8, wide...))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, cs := decodeFeasibleFuzz(data)
		got, want := Build(cs, sp), refBuild(cs, sp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Build differs from the reference\nconstraints: %v\ngot:  %+v\nwant: %+v", cs, got, want)
		}
		if f := Feasible(cs, sp); f != want.Feasible {
			t.Fatalf("Feasible = %v, reference %v\nconstraints: %v", f, want.Feasible, cs)
		}
		for known := 0; known <= len(cs); known++ {
			slice, ref := sliceFrom(nil, nil, cs, known), refSliceFrom(cs, known)
			if len(slice) != len(ref) || len(ref) > 0 && !reflect.DeepEqual(slice, ref) {
				t.Fatalf("known=%d: slice %v, reference %v", known, slice, ref)
			}
			wantFrom := want.Feasible
			if known > 0 {
				wantFrom = refBuild(ref, sp).Feasible
			}
			if f := FeasibleFrom(cs, known, sp); f != wantFrom {
				t.Fatalf("known=%d: FeasibleFrom = %v, reference %v\nconstraints: %v", known, f, wantFrom, cs)
			}
		}
	})
}

// TestFeasibleFromAllocs pins the sliced check on a small slice to zero
// allocations: the slice, its variable set and the normalization state all
// live in inline arrays on the stack.
func TestFeasibleFromAllocs(t *testing.T) {
	sp := space16()
	var cs []Constraint
	for i := 0; i < 11; i++ {
		cs = append(cs, cmp(ir.CmpLe, VarExpr(v(i, "a")), VarExpr(v(i, "b")).Add(ConstExpr(int64(i)))))
	}
	cs[4] = cmp(ir.CmpGe, VarExpr(v(0, "c")), ConstExpr(2))
	cs = append(cs, cmp(ir.CmpNe, VarExpr(v(0, "c")), ConstExpr(3))) // the slice: cs[4] and this, over p0.c
	if !FeasibleFrom(cs, 11, sp) {
		t.Fatal("want feasible")
	}
	if n := testing.AllocsPerRun(100, func() { FeasibleFrom(cs, 11, sp) }); n != 0 {
		t.Fatalf("FeasibleFrom allocates %v times per call, want 0", n)
	}
}
