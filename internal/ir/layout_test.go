package ir_test

import (
	"math/rand"
	"regexp"
	"testing"

	"repro/internal/ir"
	"repro/internal/programs"
	"repro/internal/randprog"
)

// refPattern finds register and metadata references in a formatted
// program, the same text `p4wn` prints, so the names come from a source
// independent of the layout's own walk.
var refPattern = regexp.MustCompile(`\b(reg|meta)\.([^\s;,()\[\]]+)`)

// checkLayout asserts that every declared register and every register or
// metadata name the formatted program mentions has a slot, and that the
// slots are dense and named consistently.
func checkLayout(t *testing.T, p *ir.Program) {
	t.Helper()
	l := ir.NewLayout(p)
	if l.Nodes != len(p.Nodes()) {
		t.Fatalf("%s: layout has %d visit slots for %d nodes", p.Name, l.Nodes, len(p.Nodes()))
	}
	for i, r := range p.Regs {
		if s, ok := l.RegSlot(r.Name); !ok || s != i {
			t.Fatalf("%s: declared register %q has slot %d, %v; want %d", p.Name, r.Name, s, ok, i)
		}
	}
	for _, m := range refPattern.FindAllStringSubmatch(p.Format(), -1) {
		slot, names := l.MetaSlot, l.Meta
		if m[1] == "reg" {
			slot, names = l.RegSlot, l.Regs
		}
		s, ok := slot(m[2])
		if !ok {
			t.Fatalf("%s: %s has no slot\n%s", p.Name, m[0], p.Format())
		}
		if names[s] != m[2] {
			t.Fatalf("%s: slot %d of %s is named %q", p.Name, s, m[0], names[s])
		}
	}
}

func TestLayoutCoversZoo(t *testing.T) {
	for _, m := range programs.All() {
		checkLayout(t, m.Build())
	}
}

// Destinations that nothing reads still need a slot: both engines write
// them.
func TestLayoutCoversUnreadDestinations(t *testing.T) {
	p := &ir.Program{
		Name:       "dests",
		RegArrays:  []ir.RegArrayDecl{{Name: "a", Size: 4, Bits: 32}},
		HashTables: []ir.HashTableDecl{{Name: "h", Size: 16}},
		Sketches:   []ir.SketchDecl{{Name: "s", Rows: 2, Cols: 16}},
		Root: ir.Body(
			&ir.HashAccess{Store: "h", Key: ir.FlowKey(), Dest: "hv"},
			&ir.SketchUpdate{Sketch: "s", Key: ir.FlowKey(), Dest: "sv"},
			&ir.ArrayRead{Array: "a", Index: ir.C(0), Dest: "av"},
		),
	}
	prog := p.MustBuild()
	checkLayout(t, prog)
	if got := ir.NewLayout(prog).Meta; len(got) != 3 {
		t.Fatalf("metadata slots %v, want hv, sv, av", got)
	}
}

func TestLayoutCoversRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkLayout(t, randprog.Deterministic(rng, randprog.Options{WithTables: seed%2 == 0}))
	}
}
