package sym

import (
	"fmt"
	"testing"

	"repro/internal/ir"
)

// slotProgram declares n registers and writes n metadata names, each from
// a register, then branches on the first one.
func slotProgram(t *testing.T, n int) *ir.Program {
	t.Helper()
	p := &ir.Program{Name: fmt.Sprintf("slots-%d", n)}
	var stmts []ir.Stmt
	for i := 0; i < n; i++ {
		r, m := fmt.Sprintf("r%d", i), fmt.Sprintf("m%d", i)
		p.Regs = append(p.Regs, ir.RegDecl{Name: r, Bits: 32, Init: uint64(i)})
		stmts = append(stmts, ir.SetM(m, ir.R(r)), ir.Add1(r))
	}
	stmts = append(stmts, ir.If2(ir.Eq(ir.F("proto"), ir.C(ir.ProtoTCP)),
		ir.Blk("tcp", ir.Fwd(1)), ir.Blk("other", ir.Fwd(2))))
	p.Root = ir.Body(stmts...)
	return p.MustBuild()
}

// A clone owns its state: writing its register, metadata, visit bit and
// visit count leaves the parent as it was.
func TestCloneIsolation(t *testing.T) {
	prog := slotProgram(t, 3)
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	tcp, other := prog.NodeByLabel("tcp").ID, prog.NodeByLabel("other").ID
	wantReg, _ := p.Reg("r1")
	wantMeta := p.meta[e.lay.MustMetaSlot("m1")]
	wasTCP, wasOther := p.Visited(tcp), p.Visited(other)
	tcpN, otherN := p.VisitCount(tcp), p.VisitCount(other)

	q := p.Clone()
	q.regs[e.lay.MustRegSlot("r1")] = ConcreteVal(99)
	q.meta[e.lay.MustMetaSlot("m1")] = ConcreteVal(98)
	q.visit(tcp)
	q.visit(other)

	if got, _ := p.Reg("r1"); got.stateKey() != wantReg.stateKey() {
		t.Errorf("parent register r1 = %s after the clone's write, want %s", got.stateKey(), wantReg.stateKey())
	}
	if got := p.meta[e.lay.MustMetaSlot("m1")]; got.stateKey() != wantMeta.stateKey() {
		t.Errorf("parent metadata m1 = %s after the clone's write, want %s", got.stateKey(), wantMeta.stateKey())
	}
	if p.Visited(tcp) != wasTCP || p.Visited(other) != wasOther {
		t.Errorf("parent visit bits changed by the clone's visits")
	}
	if p.VisitCount(tcp) != tcpN || p.VisitCount(other) != otherN {
		t.Errorf("parent visit counts %d, %d after the clone's visits, want %d, %d",
			p.VisitCount(tcp), p.VisitCount(other), tcpN, otherN)
	}
	if got, _ := q.Reg("r1"); got.stateKey() != ConcreteVal(99).stateKey() || !q.Visited(tcp) || !q.Visited(other) {
		t.Errorf("clone lost its own writes")
	}
}

// Clone's allocation count does not grow with the number of registers or
// metadata names: their slots are copied in bulk.
func TestCloneAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		e := NewEngine(slotProgram(t, n), Options{Greybox: true})
		paths, err := e.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		p := paths[0]
		return testing.AllocsPerRun(100, func() { p.Clone() })
	}
	if one, fifty := allocs(1), allocs(50); one != fifty {
		t.Fatalf("Clone allocates %v times with 1 register and metadata name, %v with 50", one, fifty)
	}
}

// A metadata slot the current packet has not written reads as 0, even when
// an earlier packet wrote it.
func TestUnwrittenMetadataReadsZero(t *testing.T) {
	p := &ir.Program{
		Name: "meta-reset",
		Regs: []ir.RegDecl{{Name: "n", Bits: 32}},
		Root: ir.Body(
			ir.If2(ir.Eq(ir.R("n"), ir.C(0)),
				ir.Blk("first", ir.SetM("m", ir.C(7))),
				ir.Blk("later")),
			ir.If2(ir.Eq(ir.M("m"), ir.C(0)),
				ir.Blk("zero", ir.Fwd(1)),
				ir.Blk("seven", ir.Fwd(2))),
			ir.Add1("n"),
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("deterministic program should have 1 path, got %d", len(paths))
	}
	q := paths[0]
	zero, seven := prog.NodeByLabel("zero").ID, prog.NodeByLabel("seven").ID
	if !q.Visited(zero) || q.VisitCount(seven) != 1 || q.VisitCount(zero) != 1 {
		t.Fatalf("packet 2 should read unwritten metadata as 0: zero visited %v, counts zero %d seven %d",
			q.Visited(zero), q.VisitCount(zero), q.VisitCount(seven))
	}
	if got := q.VisitedNodes(); len(got) == 0 || got[0] != 0 {
		t.Fatalf("VisitedNodes = %v, want sorted from the entry block", got)
	}
}

// StateKey lists registers in name order, whatever their declaration (and
// slot) order.
func TestStateKeyRegisterOrder(t *testing.T) {
	p := &ir.Program{
		Name: "order",
		Regs: []ir.RegDecl{{Name: "zeta", Bits: 8, Init: 1}, {Name: "alpha", Bits: 8, Init: 2}},
		Root: ir.Body(ir.Fwd(1)),
	}
	e := NewEngine(p.MustBuild(), Options{Greybox: true})
	if got, want := e.Initial()[0].StateKey(), "ralpha=c2;rzeta=c1;"; got != want {
		t.Fatalf("StateKey = %q, want %q", got, want)
	}
}
