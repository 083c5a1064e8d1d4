package ir

import "testing"

func hasEdge(g *CFG, from, to int) bool {
	for _, s := range g.Succ(from) {
		if s == to {
			return true
		}
	}
	return false
}

// BuildCFG must wire every extern arm — hash empty/hit/collide, bloom
// hit/miss, sketch true/false — as a successor of its owning block, and give
// every terminal block the per-packet back-edge to the entry.
func TestBuildCFGExternArms(t *testing.T) {
	p, err := (&Program{
		Name:       "externs",
		HashTables: []HashTableDecl{{Name: "flows", Size: 64}},
		Blooms:     []BloomDecl{{Name: "seen", Bits: 512, Hashes: 3}},
		Sketches:   []SketchDecl{{Name: "freq", Rows: 2, Cols: 64}},
		Root: Body(
			&HashAccess{
				Store: "flows", Key: FlowKey(), Write: true,
				OnEmpty:   Blk("h.empty", Fwd(1)),
				OnHit:     Blk("h.hit", Fwd(2)),
				OnCollide: Blk("h.collide", Drop()),
			},
			&BloomOp{
				Filter: "seen", Key: FlowKey(), Insert: true,
				OnHit:  Blk("b.hit", Fwd(3)),
				OnMiss: Blk("b.miss", Fwd(4)),
			},
			&SketchBranch{
				Sketch: "freq", Key: FlowKey(), Op: CmpGt, Threshold: 100,
				OnTrue:  Blk("s.heavy", ToCPU()),
				OnFalse: Blk("s.light", Fwd(5)),
			},
		),
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCFG(p)
	entry := p.Root.(*Block).ID

	arms := []string{"h.empty", "h.hit", "h.collide", "b.hit", "b.miss", "s.heavy", "s.light"}
	for _, label := range arms {
		b := p.NodeByLabel(label)
		if b == nil {
			t.Fatalf("block %q missing", label)
		}
		if !hasEdge(g, entry, b.ID) {
			t.Errorf("no edge entry -> %q", label)
		}
		// Every arm here is terminal: it must loop back to the entry for
		// the next packet.
		if !hasEdge(g, b.ID, entry) {
			t.Errorf("no back-edge %q -> entry", label)
		}
	}
	if hasEdge(g, entry, entry) {
		t.Error("entry must not be its own successor")
	}
	if got := g.NumNodes(); got != len(arms)+1 {
		t.Errorf("NumNodes() = %d, want %d", got, len(arms)+1)
	}
}

// Table actions (including the symbolic arm) hang off the applying block.
func TestBuildCFGTableEdges(t *testing.T) {
	p, err := (&Program{
		Name: "tbl",
		Tables: []TableDecl{{
			Name: "acl",
			Keys: []Expr{F("dst_port")},
			Entries: []Entry{
				{Match: []MatchSpec{Exact(80)}, Action: Blk("acl.web", Fwd(2))},
			},
			Default:         Blk("acl.def", Fwd(1)),
			SymbolicEntries: 2,
			SymbolicAction:  Blk("acl.sym", Drop()),
		}},
		Root: Body(&TableApply{Table: "acl"}),
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCFG(p)
	entry := p.Root.(*Block).ID
	for _, label := range []string{"acl.web", "acl.def", "acl.sym"} {
		b := p.NodeByLabel(label)
		if b == nil {
			t.Fatalf("block %q missing", label)
		}
		if !hasEdge(g, entry, b.ID) {
			t.Errorf("no edge entry -> %q", label)
		}
		if !hasEdge(g, b.ID, entry) {
			t.Errorf("no back-edge %q -> entry", label)
		}
	}
}

// A table whose action re-applies itself must not hang CFG construction.
// Build rejects it, but the analysis verifier walks the lenient build, so
// BuildCFG just has to terminate there.
func TestBuildCFGRecursiveApplyTerminates(t *testing.T) {
	p, err := (&Program{
		Name: "recur",
		Tables: []TableDecl{{
			Name:    "loop",
			Keys:    []Expr{F("proto")},
			Default: Blk("loop.def", &TableApply{Table: "loop"}, Fwd(1)),
		}},
		Root: Body(&TableApply{Table: "loop"}),
	}).BuildUnvalidated()
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCFG(p) // must return, not recurse forever
	if g.NumNodes() != 2 {
		t.Errorf("NumNodes() = %d, want 2", g.NumNodes())
	}
	def := p.NodeByLabel("loop.def")
	if !hasEdge(g, p.Root.(*Block).ID, def.ID) {
		t.Error("no edge entry -> loop.def")
	}
}

// Nested arms chain: a branch inside a hash arm is a successor of the arm,
// not of the entry.
func TestBuildCFGNestedArms(t *testing.T) {
	p, err := (&Program{
		Name:       "nested",
		HashTables: []HashTableDecl{{Name: "h", Size: 16}},
		Root: Body(
			&HashAccess{
				Store: "h", Key: FlowKey(), Write: true,
				OnHit: Blk("hit",
					If2(Eq(F("proto"), C(ProtoTCP)),
						Blk("hit.tcp", Fwd(1)),
						Blk("hit.other", Drop()))),
			},
			Fwd(9),
		),
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCFG(p)
	entry := p.Root.(*Block).ID
	hit := p.NodeByLabel("hit").ID
	tcp := p.NodeByLabel("hit.tcp").ID
	other := p.NodeByLabel("hit.other").ID
	if !hasEdge(g, entry, hit) || !hasEdge(g, hit, tcp) || !hasEdge(g, hit, other) {
		t.Errorf("nested arm edges wrong: succ(entry)=%v succ(hit)=%v",
			g.Succ(entry), g.Succ(hit))
	}
	if hasEdge(g, entry, tcp) || hasEdge(g, entry, other) {
		t.Error("inner arms must not be direct successors of the entry")
	}
}
