package dut

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/trace"
)

// evalOperands includes mod by 0, shift counts at and past 64, and the
// 32- and 64-bit wraparound boundaries.
var evalOperands = []uint64{0, 1, 5, 63, 64, 65, 1<<32 - 1, 1 << 63, ^uint64(0)}

// replayOne runs one packet through a program whose registers a and b start
// at the operands and whose one statement computes into register r.
func replayOne(t *testing.T, a, b uint64, stmt ir.Stmt) uint64 {
	t.Helper()
	p := &ir.Program{
		Name: "eval",
		Regs: []ir.RegDecl{{Name: "a", Bits: 64, Init: a}, {Name: "b", Bits: 64, Init: b}, {Name: "r", Bits: 64}},
		Root: ir.Body(stmt),
	}
	prog, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	sw := New(prog, Config{})
	sw.Process(&trace.Packet{})
	return sw.Reg("r")
}

// TestCompiledOpsFollowIR pins the switch's specialized closures to the
// IR's statement of each operator: the constant-operand form (B is a
// constant, folded into the closure) and the general form (B read at run
// time) must both equal ir's Eval.
func TestCompiledOpsFollowIR(t *testing.T) {
	forms := []struct {
		name string
		b    func(v uint64) ir.Expr
	}{
		{"const", func(v uint64) ir.Expr { return ir.C(v) }},
		{"general", func(uint64) ir.Expr { return ir.R("b") }},
	}
	for _, f := range forms {
		for op := ir.OpAdd; op <= ir.OpShr; op++ {
			for _, a := range evalOperands {
				for _, b := range evalOperands {
					got := replayOne(t, a, b, ir.Set("r", ir.Bin{Op: op, A: ir.R("a"), B: f.b(b)}))
					if want := op.Eval(a, b); got != want {
						t.Errorf("%s: %d %v %d = %d on the switch, %d in ir", f.name, a, op, b, got, want)
					}
				}
			}
		}
		for op := ir.CmpEq; op.Valid(); op++ {
			for _, a := range evalOperands {
				for _, b := range evalOperands {
					cond := ir.Cmp{Op: op, A: ir.R("a"), B: f.b(b)}
					got := replayOne(t, a, b, ir.If1(cond, ir.Set("r", ir.C(1)))) == 1
					if want := op.Eval(a, b); got != want {
						t.Errorf("%s: %d %v %d = %v on the switch, %v in ir", f.name, a, op, b, got, want)
					}
				}
			}
		}
	}
}
