package mc

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/solver"
	"repro/internal/testutil"
)

// fuzzCmp is one decoded comparison: lhs op rhs, where lhs is field x or y
// and rhs is either the constant k or the other field plus k.
type fuzzCmp struct {
	op     ir.CmpOp
	lhsY   bool
	rhsVar bool
	k      int64
}

var fuzzOps = [...]ir.CmpOp{ir.CmpLt, ir.CmpLe, ir.CmpEq, ir.CmpNe}

// decodeFuzzConj turns fuzz bytes into two field widths (2–6 bits) and a
// conjunction of 1–4 comparisons. Constants range one past each end of
// the field's domain; offsets against the other field range over ±4.
func decodeFuzzConj(data []byte) (wx, wy int, cmps []fuzzCmp) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	wx, wy = 2+at(0)%5, 2+at(1)%5
	n := 1 + at(2)%4
	for i := 0; i < n; i++ {
		b, kb := at(3+2*i), at(4+2*i)
		c := fuzzCmp{op: fuzzOps[b%4], lhsY: b&4 != 0, rhsVar: b&8 != 0}
		w := wx
		if c.lhsY {
			w = wy
		}
		if c.rhsVar {
			c.k = int64(kb%9) - 4
		} else {
			c.k = int64(kb%((1<<w)+2)) - 1
		}
		cmps = append(cmps, c)
	}
	return wx, wy, cmps
}

func (c fuzzCmp) holds(x, y int64) bool {
	lhs, other := x, y
	if c.lhsY {
		lhs, other = y, x
	}
	rhs := c.k
	if c.rhsVar {
		rhs += other
	}
	switch c.op {
	case ir.CmpLt:
		return lhs < rhs
	case ir.CmpLe:
		return lhs <= rhs
	case ir.CmpEq:
		return lhs == rhs
	default:
		return lhs != rhs
	}
}

func (c fuzzCmp) constraint() solver.Constraint {
	x, y := solver.VarExpr(v(0, "x")), solver.VarExpr(v(0, "y"))
	lhs, other := x, y
	if c.lhsY {
		lhs, other = y, x
	}
	rhs := solver.ConstExpr(c.k)
	if c.rhsVar {
		rhs = other.Add(rhs)
	}
	return solver.NewCmp(c.op, lhs, rhs)
}

// FuzzExactCountMatchesEnumeration checks the exact counter against brute
// force: whenever ProbOf answers without a Monte-Carlo fallback, its
// probability must equal the satisfying fraction of the whole domain.
func FuzzExactCountMatchesEnumeration(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3})                    // 2 bits: x < 2
	f.Add([]byte{4, 4, 1, 9, 4, 6, 4})              // 6 bits: x <= y, y == 3
	f.Add([]byte{2, 3, 3, 8, 5, 10, 2, 1, 7, 7, 0}) // x < y+1, x == y-2, x <= 6, y != -1
	f.Add([]byte{1, 4, 2, 13, 8, 2, 1, 11, 0})      // y <= x+4, x == 0, x != y-4
	f.Fuzz(func(t *testing.T, data []byte) {
		wx, wy, cmps := decodeFuzzConj(data)
		cs := make([]solver.Constraint, len(cmps))
		for i, c := range cmps {
			cs[i] = c.constraint()
		}
		c := NewCounter(solver.NewSpace([]ir.Field{{Name: "x", Bits: wx}, {Name: "y", Bits: wy}}), nil)
		got := c.ProbOf(cs).Float()
		if c.Stats().MCFallbacks > 0 {
			return // estimated, not counted: nothing exact to compare
		}
		n := 0
		for x := int64(0); x < 1<<wx; x++ {
			for y := int64(0); y < 1<<wy; y++ {
				ok := true
				for _, cm := range cmps {
					if !cm.holds(x, y) {
						ok = false
						break
					}
				}
				if ok {
					n++
				}
			}
		}
		want := float64(n) / float64(int64(1)<<(wx+wy))
		if !testutil.ApproxEqual(got, want, 1e-12, 1e-9) {
			t.Fatalf("x:%d bits, y:%d bits, %v: ProbOf = %v, enumeration = %v (%d pairs)",
				wx, wy, cs, got, want, n)
		}
	})
}
