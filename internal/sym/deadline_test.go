package sym

import (
	"context"
	"testing"
	"time"

	"repro/internal/ir"
)

// sketchLoopProg is a fork-free program: a straight-line run of greybox
// sketch updates with no branches, so exploration never forks and the only
// mid-step budget checks are the per-statement one in execBlock and the
// stride-based tickBudget inside the store-update loop.
func sketchLoopProg(t testing.TB, updates int) *ir.Program {
	t.Helper()
	stmts := make([]ir.Stmt, 0, updates+1)
	for i := 0; i < updates; i++ {
		stmts = append(stmts,
			&ir.SketchUpdate{Sketch: "cnt", Key: ir.FlowKey(), Inc: ir.C(1), Dest: "est"})
	}
	stmts = append(stmts, ir.Fwd(1))
	p := &ir.Program{
		Name:     "sketch_loop",
		Sketches: []ir.SketchDecl{{Name: "cnt", Rows: 3, Cols: 1024}},
		Root:     ir.Body(stmts...),
	}
	return p.MustBuild()
}

// expiredCtx returns a context whose deadline has already passed.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

// TestDeadlineStrideInSketchUpdates pins the stride mechanism itself: greybox
// sketch updates executed outside any enclosing block (so execBlock's
// per-statement check never runs) must still notice an expired deadline via
// tickBudget, on exactly the 64th update.
func TestDeadlineStrideInSketchUpdates(t *testing.T) {
	prog := sketchLoopProg(t, 1)
	e := NewEngine(prog, Options{Greybox: true, Ctx: expiredCtx(t)})
	p := e.Initial()[0]
	p.resetPacket()
	e.pinLayout(p, 0)
	upd := &ir.SketchUpdate{Sketch: "cnt", Key: ir.FlowKey(), Inc: ir.C(1), Dest: "est"}
	var err error
	calls := 0
	for i := 0; i < 200 && err == nil; i++ {
		_, err = e.exec(p, upd, 0)
		calls++
	}
	if err != ErrBudget {
		t.Fatalf("expected ErrBudget from stride check, got %v after %d updates", err, calls)
	}
	if calls != 64 {
		t.Fatalf("stride check fired after %d updates, want 64", calls)
	}
}

// TestDeadlineInsideForkFreeStep: the public-API view — a Step over a
// fork-free looping program with an already-expired deadline returns
// ErrBudget instead of running the whole packet to completion.
func TestDeadlineInsideForkFreeStep(t *testing.T) {
	prog := sketchLoopProg(t, 200)
	e := NewEngine(prog, Options{Greybox: true, Ctx: expiredCtx(t)})
	if _, err := e.Step(e.Initial(), 0); err != ErrBudget {
		t.Fatalf("expected ErrBudget from Step, got %v", err)
	}
}

// TestForkFreeStepCompletesWithoutDeadline is the control: the same program
// with no deadline completes every update and keeps its single path.
func TestForkFreeStepCompletesWithoutDeadline(t *testing.T) {
	prog := sketchLoopProg(t, 200)
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Step(e.Initial(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("fork-free program should keep one path, got %d", len(paths))
	}
}
