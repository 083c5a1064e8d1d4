package ir

import "testing"

// semOperands are the operands every operator is checked on: zero and one,
// shift counts around 64, and the 32- and 64-bit boundaries where
// wraparound shows.
var semOperands = []uint64{0, 1, 5, 63, 64, 65, 1<<32 - 1, 1 << 63, ^uint64(0)}

// TestBinOpEval checks each operator against Go's own, and states the two
// places the IR differs from Go: x % 0 is 0 (Go panics) and the shift count
// is taken mod 64 (Go shifts everything out at 64 and beyond).
func TestBinOpEval(t *testing.T) {
	gos := map[BinOp]func(a, b uint64) uint64{
		OpAdd: func(a, b uint64) uint64 { return a + b },
		OpSub: func(a, b uint64) uint64 { return a - b },
		OpMul: func(a, b uint64) uint64 { return a * b },
		OpAnd: func(a, b uint64) uint64 { return a & b },
		OpOr:  func(a, b uint64) uint64 { return a | b },
		OpXor: func(a, b uint64) uint64 { return a ^ b },
		OpMod: func(a, b uint64) uint64 {
			if b == 0 {
				return 0
			}
			return a % b
		},
		OpShl: func(a, b uint64) uint64 { return a << (b % 64) },
		OpShr: func(a, b uint64) uint64 { return a >> (b % 64) },
	}
	for op := OpAdd; op <= OpShr; op++ {
		want, ok := gos[op]
		if !ok {
			t.Fatalf("operator %v has no reference", op)
		}
		for _, a := range semOperands {
			for _, b := range semOperands {
				if got := op.Eval(a, b); got != want(a, b) {
					t.Errorf("%d %v %d = %d, want %d", a, op, b, got, want(a, b))
				}
			}
		}
	}
	for _, c := range []struct {
		op         BinOp
		a, b, want uint64
	}{
		{OpMod, 7, 0, 0},
		{OpShl, 1, 64, 1},
		{OpShl, 1, 65, 2},
		{OpShr, 1 << 63, 127, 1},
		{OpAdd, ^uint64(0), 1, 0},
		{OpSub, 0, 1, ^uint64(0)},
		{BinOp(99), 3, 4, 0},
	} {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%d %v %d = %d, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

// TestCmpOpEval checks each comparison against Go's unsigned operators, and
// that Swap and Negate agree with Eval.
func TestCmpOpEval(t *testing.T) {
	gos := map[CmpOp]func(a, b uint64) bool{
		CmpEq: func(a, b uint64) bool { return a == b },
		CmpNe: func(a, b uint64) bool { return a != b },
		CmpLt: func(a, b uint64) bool { return a < b },
		CmpLe: func(a, b uint64) bool { return a <= b },
		CmpGt: func(a, b uint64) bool { return a > b },
		CmpGe: func(a, b uint64) bool { return a >= b },
	}
	for op := CmpEq; op.Valid(); op++ {
		want, ok := gos[op]
		if !ok {
			t.Fatalf("operator %v has no reference", op)
		}
		if op.Swap().Swap() != op {
			t.Errorf("%v.Swap().Swap() = %v", op, op.Swap().Swap())
		}
		for _, a := range semOperands {
			for _, b := range semOperands {
				got := op.Eval(a, b)
				if got != want(a, b) {
					t.Errorf("%d %v %d = %v, want %v", a, op, b, got, want(a, b))
				}
				if swapped := op.Swap().Eval(b, a); swapped != got {
					t.Errorf("%d %v %d = %v but %d %v %d = %v", a, op, b, got, b, op.Swap(), a, swapped)
				}
				if neg := op.Negate().Eval(a, b); neg == got {
					t.Errorf("%d %v %d = %v and %d %v %d = %v", a, op, b, got, a, op.Negate(), b, neg)
				}
			}
		}
	}
	bad := CmpOp(99)
	if bad.Eval(1, 1) || bad.Swap() != bad {
		t.Errorf("out-of-range operator: Eval(1, 1) = %v, Swap() = %v", bad.Eval(1, 1), bad.Swap())
	}
}

func TestEntryMatches(t *testing.T) {
	for _, c := range []struct {
		name  string
		specs []MatchSpec
		key   []uint64
		want  bool
	}{
		{"exact hit", []MatchSpec{Exact(80)}, []uint64{80}, true},
		{"exact miss", []MatchSpec{Exact(80)}, []uint64{81}, false},
		{"exact max", []MatchSpec{Exact(^uint64(0))}, []uint64{^uint64(0)}, true},
		{"range low edge", []MatchSpec{Range(10, 20)}, []uint64{10}, true},
		{"range high edge", []MatchSpec{Range(10, 20)}, []uint64{20}, true},
		{"range below", []MatchSpec{Range(10, 20)}, []uint64{9}, false},
		{"range above", []MatchSpec{Range(10, 20)}, []uint64{21}, false},
		{"range full", []MatchSpec{Range(0, ^uint64(0))}, []uint64{1 << 63}, true},
		{"wildcard", []MatchSpec{Wild()}, []uint64{12345}, true},
		{"unknown kind", []MatchSpec{{Kind: MatchKind(9), Lo: 1, Hi: 1}}, []uint64{7}, true},
		{"no specs", nil, []uint64{7}, true},
		{"all fields hit", []MatchSpec{Exact(6), Range(1, 3), Wild()}, []uint64{6, 2, 99}, true},
		{"second field misses", []MatchSpec{Exact(6), Range(1, 3), Wild()}, []uint64{6, 4, 99}, false},
	} {
		if got := EntryMatches(c.specs, c.key); got != c.want {
			t.Errorf("%s: EntryMatches(%v, %v) = %v, want %v", c.name, c.specs, c.key, got, c.want)
		}
	}
}
