package ir

import "testing"

func sample() *Program {
	return &Program{
		Name: "sample",
		Regs: []RegDecl{{Name: "cnt", Bits: 32}},
		Root: Body(
			If2(Eq(F("proto"), C(ProtoTCP)),
				Blk("tcp", Add1("cnt"), Fwd(1)),
				Blk("udp", Fwd(2))),
			If1(Ge(R("cnt"), C(100)), Blk("hot", ToCPU())),
		),
	}
}

func TestBuildAssignsNodeIDs(t *testing.T) {
	p, err := sample().Build()
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.Nodes()
	if len(nodes) != 4 { // entry, tcp, udp, hot
		t.Fatalf("want 4 nodes, got %d", len(nodes))
	}
	for i, n := range nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
	}
	if p.NodeByLabel("tcp") == nil || p.NodeByLabel("hot") == nil {
		t.Fatal("labels not found")
	}
	if p.NodeByLabel("nope") != nil {
		t.Fatal("unknown label should be nil")
	}
}

func TestBuildTwiceFails(t *testing.T) {
	p := sample().MustBuild()
	if _, err := p.Build(); err == nil {
		t.Fatal("second Build should error")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []*Program{
		{Name: "no-root"},
		{Name: "bad-field", Root: Body(If1(Eq(F("nonexistent"), C(1)), Blk("x", Drop())))},
		{Name: "bad-reg", Root: Body(Add1("missing"))},
		{Name: "bad-ht", Root: Body(&HashAccess{Store: "missing", Key: FlowKey()})},
		{Name: "bad-bloom", Root: Body(&BloomOp{Filter: "missing", Key: FlowKey()})},
		{Name: "bad-sketch", Root: Body(&SketchUpdate{Sketch: "missing", Key: FlowKey()})},
		{Name: "bad-array", Root: Body(&ArrayRead{Array: "missing", Index: C(0), Dest: "v"})},
		{Name: "bad-table", Root: Body(&TableApply{Table: "missing"})},
		{Name: "dup-field", Fields: []Field{{"a", 8}, {"a", 8}}, Root: Body(Drop())},
		{Name: "bad-width", Fields: []Field{{"a", 99}}, Root: Body(Drop())},
		{Name: "empty-array", RegArrays: []RegArrayDecl{{Name: "a", Size: 0, Bits: 32}}, Root: Body(Drop())},
		{Name: "empty-ht", HashTables: []HashTableDecl{{Name: "h", Size: 0}}, Root: Body(Drop())},
		{Name: "empty-bloom", Blooms: []BloomDecl{{Name: "b", Bits: 0, Hashes: 3}}, Root: Body(Drop())},
		{Name: "empty-sketch", Sketches: []SketchDecl{{Name: "s", Rows: 2, Cols: 0}}, Root: Body(Drop())},
		{Name: "hashless-bloom", Blooms: []BloomDecl{{Name: "b", Bits: 4096, Hashes: 0}}, Root: Body(Drop())},
		{Name: "rowless-sketch", Sketches: []SketchDecl{{Name: "s", Rows: 0, Cols: 4096}}, Root: Body(Drop())},
		{Name: "bad-action-kind", Root: Body(&Action{Kind: ActToBackend + 1})},
		{Name: "bad-bin-op", Root: Body(SetM("x", Bin{Op: OpShr + 1, A: C(1), B: C(2)}))},
		{Name: "bad-cmp-op", Root: Body(If1(Cmp{Op: CmpGe + 1, A: F("proto"), B: C(6)}, Drop()))},
		{Name: "bad-sketch-branch-op", Sketches: []SketchDecl{{Name: "s", Rows: 2, Cols: 64}},
			Root: Body(&SketchBranch{Sketch: "s", Key: FlowKey(), Op: CmpOp(-1), OnTrue: Drop()})},
		{Name: "empty-range",
			Tables: []TableDecl{{Name: "t", Keys: []Expr{F("dst_port")},
				Entries: []Entry{{Match: []MatchSpec{Range(90, 80)}, Action: Drop()}}}},
			Root: Body(&TableApply{Table: "t"})},
		{Name: "const-index-read", RegArrays: []RegArrayDecl{{Name: "a", Size: 4, Bits: 32}},
			Root: Body(&ArrayRead{Array: "a", Index: C(9), Dest: "v"})},
		{Name: "const-index-write", RegArrays: []RegArrayDecl{{Name: "a", Size: 4, Bits: 32}},
			Root: Body(&ArrayWrite{Array: "a", Index: C(4), Value: C(1)})},
		{Name: "recursive-apply",
			Tables: []TableDecl{{Name: "t", Keys: []Expr{F("dst_port")},
				Entries: []Entry{{Match: []MatchSpec{Exact(80)}, Action: &TableApply{Table: "t"}}}}},
			Root: Body(&TableApply{Table: "t"})},
		{Name: "recursive-apply-transitive",
			Tables: []TableDecl{
				{Name: "a", Default: &TableApply{Table: "b"}},
				{Name: "b", Default: &TableApply{Table: "a"}}},
			Root: Body(&TableApply{Table: "a"})},
		{Name: "dup-array", RegArrays: []RegArrayDecl{{Name: "a", Size: 4, Bits: 32}, {Name: "a", Size: 8, Bits: 32}},
			Root: Body(Drop())},
		{Name: "dup-table", Tables: []TableDecl{{Name: "t", Default: Drop()}, {Name: "t", Default: Fwd(1)}},
			Root: Body(&TableApply{Table: "t"})},
		{Name: "dup-sketch", Sketches: []SketchDecl{{Name: "s", Rows: 2, Cols: 64}, {Name: "s", Rows: 3, Cols: 64}},
			Root: Body(Drop())},
		{Name: "bad-reg-in-table-action",
			Tables: []TableDecl{{Name: "t", Keys: []Expr{F("dst_port")},
				Entries: []Entry{{Match: []MatchSpec{Exact(80)}, Action: Body(Add1("missing"))}}}},
			Root: Body(&TableApply{Table: "t"})},
	}
	for _, p := range cases {
		if _, err := p.Build(); err == nil {
			t.Errorf("program %q should fail validation", p.Name)
		}
	}
}

func TestTableEntryArityCheck(t *testing.T) {
	p := &Program{
		Name: "t",
		Tables: []TableDecl{{
			Name:    "tbl",
			Keys:    []Expr{F("dst_port"), F("proto")},
			Entries: []Entry{{Match: []MatchSpec{Exact(80)}, Action: Fwd(1)}},
		}},
		Root: Body(&TableApply{Table: "tbl"}),
	}
	if _, err := p.Build(); err == nil {
		t.Fatal("entry arity mismatch should fail")
	}
}

func TestBranchesScan(t *testing.T) {
	p := sample().MustBuild()
	brs := p.Branches()
	if len(brs) != 2 {
		t.Fatalf("want 2 branches, got %d", len(brs))
	}
	// Second branch is the register guard.
	if brs[1].Then.Label != "hot" {
		t.Fatalf("guard branch arm = %q", brs[1].Then.Label)
	}
}

func TestExpensiveNodes(t *testing.T) {
	p := sample().MustBuild()
	exp := p.ExpensiveNodes()
	hot := p.NodeByLabel("hot")
	if !exp[hot.ID] {
		t.Fatal("ToCPU block should be expensive")
	}
	tcp := p.NodeByLabel("tcp")
	if exp[tcp.ID] {
		t.Fatal("forward block should not be expensive")
	}
}

func TestStatefulDetection(t *testing.T) {
	if !sample().MustBuild().Stateful() {
		t.Fatal("register program should be stateful")
	}
	stateless := (&Program{Name: "s", Root: Body(Fwd(1))}).MustBuild()
	if stateless.Stateful() {
		t.Fatal("no-state program misdetected")
	}
	approx := (&Program{
		Name:   "a",
		Blooms: []BloomDecl{{Name: "b", Bits: 64, Hashes: 2}},
		Root:   Body(&BloomOp{Filter: "b", Key: FlowKey(), OnHit: Fwd(1), OnMiss: Drop()}),
	}).MustBuild()
	if !approx.HasApprox() {
		t.Fatal("bloom program should have approx structures")
	}
}

func TestCFGDistances(t *testing.T) {
	p := sample().MustBuild()
	g := BuildCFG(p)
	if g.NumNodes() != 4 {
		t.Fatalf("cfg nodes = %d", g.NumNodes())
	}
	hot := p.NodeByLabel("hot")
	d := g.DistanceTo(hot.ID)
	if d[hot.ID] != 0 {
		t.Fatal("self distance nonzero")
	}
	entry := p.NodeByLabel("entry")
	if d[entry.ID] <= 0 || d[entry.ID] > 4 {
		t.Fatalf("entry->hot distance = %d", d[entry.ID])
	}
	// tcp reaches hot within the same packet or via the loop edge.
	tcp := p.NodeByLabel("tcp")
	if d[tcp.ID] >= 1<<29 {
		t.Fatal("tcp should reach hot")
	}
}

func TestCmpNegate(t *testing.T) {
	pairs := map[CmpOp]CmpOp{
		CmpEq: CmpNe, CmpNe: CmpEq, CmpLt: CmpGe, CmpLe: CmpGt, CmpGt: CmpLe, CmpGe: CmpLt,
	}
	for op, want := range pairs {
		if op.Negate() != want {
			t.Errorf("%v.Negate() = %v, want %v", op, op.Negate(), want)
		}
		if op.Negate().Negate() != op {
			t.Errorf("double negation of %v broken", op)
		}
	}
}

func TestFieldMax(t *testing.T) {
	if (Field{"x", 8}).Max() != 255 {
		t.Fatal("8-bit max wrong")
	}
	if (Field{"x", 64}).Max() != ^uint64(0) {
		t.Fatal("64-bit max wrong")
	}
	if (Field{"x", 16}).Size() != 65536 {
		t.Fatal("16-bit size wrong")
	}
}

func TestExprStrings(t *testing.T) {
	e := Add(F("seq"), C(5))
	if e.String() != "(pkt.seq + 5)" {
		t.Fatalf("expr string = %q", e.String())
	}
	c := And(Eq(F("proto"), C(6)), Neg(Lt(F("ttl"), C(2))))
	if c.String() == "" {
		t.Fatal("cond string empty")
	}
	h := Hash(7, 1024, F("src_ip"))
	if h.String() != "hash7(pkt.src_ip)%1024" {
		t.Fatalf("hash string = %q", h.String())
	}
}

func TestStmtCountAndWalk(t *testing.T) {
	p := sample().MustBuild()
	if p.StmtCount() < 8 {
		t.Fatalf("stmt count = %d", p.StmtCount())
	}
	blocks := 0
	p.Walk(func(s Stmt) {
		if _, ok := s.(*Block); ok {
			blocks++
		}
	})
	if blocks != 4 {
		t.Fatalf("walk found %d blocks", blocks)
	}
}
