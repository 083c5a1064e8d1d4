package dut

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/programs"
	"repro/internal/target"
	"repro/internal/trace"
)

// manyStages builds a program whose packet pass executes n stateful
// operations (sketch updates) before forwarding out of a labeled block.
func manyStages(t *testing.T, n int) *ir.Program {
	t.Helper()
	stmts := make([]ir.Stmt, 0, n+1)
	for i := 0; i < n; i++ {
		stmts = append(stmts, &ir.SketchUpdate{Sketch: "cnt", Key: ir.FlowKey(), Inc: ir.C(1)})
	}
	stmts = append(stmts, ir.Blk("out", ir.Fwd(1)))
	p := &ir.Program{
		Name:     "stages",
		Sketches: []ir.SketchDecl{{Name: "cnt", Rows: 2, Cols: 64}},
		Root:     ir.Body(stmts...),
	}
	return p.MustBuild()
}

func TestStageOverflowDrops(t *testing.T) {
	prog := manyStages(t, 5)
	model := &target.Model{Name: "tiny", MaxStages: 3, OnOverflow: target.OverflowDrop}
	sw := New(prog, Config{Target: model})
	hit := false
	sw.VisitHook = func(id int) {
		if prog.Node(id) != nil && prog.Node(id).Label == "out" {
			hit = true
		}
	}
	pkt := trace.Packet{SrcIP: 1, DstIP: 2, Len: 64}
	res := sw.Process(&pkt)
	if !res.Dropped || res.Forwarded {
		t.Fatalf("over-budget pass must drop: %+v", res)
	}
	if hit {
		t.Fatal("blocks past the stage budget must not execute")
	}
}

func TestStageOverflowPunts(t *testing.T) {
	prog := manyStages(t, 5)
	model := &target.Model{Name: "tiny", MaxStages: 3, OnOverflow: target.OverflowPunt}
	sw := New(prog, Config{Target: model})
	pkt := trace.Packet{SrcIP: 1, DstIP: 2, Len: 64}
	res := sw.Process(&pkt)
	if res.CPUPunts == 0 || res.Dropped {
		t.Fatalf("over-budget pass must punt, not drop: %+v", res)
	}
}

func TestStageBudgetUnderLimitUnaffected(t *testing.T) {
	prog := manyStages(t, 5)
	model := &target.Model{Name: "roomy", MaxStages: 12, OnOverflow: target.OverflowDrop}
	sw := New(prog, Config{Target: model})
	pkt := trace.Packet{SrcIP: 1, DstIP: 2, Len: 64}
	res := sw.Process(&pkt)
	if !res.Forwarded || res.Dropped {
		t.Fatalf("pass within budget must behave as idealized: %+v", res)
	}
}

func TestNoRecircPunts(t *testing.T) {
	p := &ir.Program{
		Name: "loop",
		Root: ir.Body(ir.Blk("spin", ir.Recirc())),
	}
	prog := p.MustBuild()
	pkt := trace.Packet{SrcIP: 1, DstIP: 2, Len: 64}

	ideal := New(prog, Config{})
	r := ideal.Process(&pkt)
	if r.Recircs == 0 || r.CPUPunts != 0 {
		t.Fatalf("idealized must recirculate: %+v", r)
	}

	noRecirc := New(prog, Config{Target: &target.Model{Name: "flat", NoRecirc: true}})
	r = noRecirc.Process(&pkt)
	if r.Recircs != 0 || r.CPUPunts == 0 {
		t.Fatalf("no-recirc target must punt the recirculation: %+v", r)
	}
}

// exactProg stores flows in a 1-slot hash table, so the slot-addressed
// switch collides any two distinct keys while a map-backed target
// never does.
func exactProg(t *testing.T) *ir.Program {
	t.Helper()
	p := &ir.Program{
		Name:       "exact",
		HashTables: []ir.HashTableDecl{{Name: "flows", Size: 1, Seed: 7}},
		Root: ir.Body(
			&ir.HashAccess{
				Store: "flows", Key: []ir.Expr{ir.F("src_ip")}, Write: true, Value: ir.C(1),
				OnEmpty:   ir.Blk("fresh", ir.Fwd(1)),
				OnHit:     ir.Blk("known", ir.Fwd(2)),
				OnCollide: ir.Blk("clash", ir.Drop()),
			},
		),
	}
	return p.MustBuild()
}

func TestExactStateRemovesCollisions(t *testing.T) {
	prog := exactProg(t)
	visits := map[string]int{}
	record := func(sw *Switch) {
		sw.VisitHook = func(id int) {
			if n := prog.Node(id); n != nil {
				visits[n.Label]++
			}
		}
	}
	a := trace.Packet{SrcIP: 1, Len: 64}
	b := trace.Packet{SrcIP: 2, Len: 64}

	// Slot-addressed: the second flow collides in the single slot.
	sw := New(prog, Config{})
	record(sw)
	sw.Process(&a)
	sw.Process(&b)
	if visits["fresh"] != 1 || visits["clash"] != 1 {
		t.Fatalf("slot-addressed visits = %v, want one fresh + one clash", visits)
	}

	// Map-backed: both flows get their own entry; re-seeing a key hits.
	visits = map[string]int{}
	sw = New(prog, Config{Target: &target.Model{Name: "maps", ExactState: true}})
	record(sw)
	sw.Process(&a)
	sw.Process(&b)
	sw.Process(&a)
	if visits["clash"] != 0 {
		t.Fatalf("exact-state target must never collide: %v", visits)
	}
	if visits["fresh"] != 2 || visits["known"] != 1 {
		t.Fatalf("exact-state visits = %v, want two fresh + one known", visits)
	}
}

func TestTargetClampedHashTable(t *testing.T) {
	// A 1024-slot table clamped to 2 slots collides quickly: with three
	// distinct keys at least two share one of the two slots.
	p := &ir.Program{
		Name:       "clamped",
		HashTables: []ir.HashTableDecl{{Name: "flows", Size: 1024, Seed: 7}},
		Root: ir.Body(
			&ir.HashAccess{
				Store: "flows", Key: []ir.Expr{ir.F("src_ip")}, Write: true, Value: ir.C(1),
				OnEmpty:   ir.Blk("fresh", ir.Fwd(1)),
				OnHit:     ir.Blk("known", ir.Fwd(2)),
				OnCollide: ir.Blk("clash", ir.Drop()),
			},
		),
	}
	prog := p.MustBuild()
	model := &target.Model{Name: "small", MaxHashSlots: 2}
	sw := New(prog, Config{Target: model})
	clash := false
	sw.VisitHook = func(id int) {
		if n := prog.Node(id); n != nil && n.Label == "clash" {
			clash = true
		}
	}
	for i := uint32(1); i <= 3; i++ {
		pkt := trace.Packet{SrcIP: i, Len: 64}
		sw.Process(&pkt)
	}
	if !clash {
		t.Fatal("three keys in a 2-slot clamped table must collide")
	}
}

// TestProcessAllocFree replays a workload through programs that exercise
// hash tables, Bloom filters, sketches and table applies, on every target,
// and requires a second pass over the same packets to allocate nothing:
// once every key is resident, Process runs on preallocated state only.
func TestProcessAllocFree(t *testing.T) {
	for _, name := range []string{"Blink (S5)", "NetCache (S6)", "*Flow (S7)", "p40f (S8)", "Poise (S10)"} {
		m, ok := programs.ByName(name)
		if !ok {
			t.Fatalf("no zoo program %q", name)
		}
		tr := trace.Generate(m.Workload(1))
		pkts := tr.Packets[:1000]
		for _, model := range target.All() {
			sw := New(m.Build(), Config{Target: model})
			// AllocsPerRun's own warm-up call is the first pass.
			allocs := testing.AllocsPerRun(1, func() {
				for i := range pkts {
					sw.Process(&pkts[i])
				}
			})
			if allocs != 0 {
				t.Errorf("%s on %s: %v allocations over %d warm packets", name, model.Name, allocs, len(pkts))
			}
		}
	}
}

func TestTableCapacityClamp(t *testing.T) {
	p := &ir.Program{
		Name: "cap",
		Tables: []ir.TableDecl{{
			Name: "t",
			Keys: []ir.Expr{ir.F("dst_port")},
			Entries: []ir.Entry{
				{Match: []ir.MatchSpec{ir.Exact(1)}, Action: ir.Blk("one", ir.Fwd(1))},
				{Match: []ir.MatchSpec{ir.Exact(2)}, Action: ir.Blk("two", ir.Fwd(2))},
			},
			Default: ir.Blk("miss", ir.ToCPU()),
		}},
		Root: ir.Body(&ir.TableApply{Table: "t"}),
	}
	prog := p.MustBuild()
	pkt := trace.Packet{DstPort: 2}
	if r := New(prog, Config{}).Process(&pkt); r.OutPort != 2 || r.CPUPunts != 0 {
		t.Fatalf("uncapped table must match entry two: %+v", r)
	}
	sw := New(prog, Config{Target: &target.Model{Name: "one-entry", MaxTableEntries: 1}})
	if r := sw.Process(&pkt); r.Forwarded || r.CPUPunts != 1 {
		t.Fatalf("an entry past the capacity is not installed, so the lookup misses: %+v", r)
	}
}

func BenchmarkDUTProcess(b *testing.B) {
	prog := programs.Blink()
	tr := trace.Generate(trace.GenOptions{Seed: 1, Packets: 1024})
	for _, model := range target.All() {
		b.Run(model.Name, func(b *testing.B) {
			sw := New(prog, Config{Target: model})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Process(&tr.Packets[i%tr.Len()])
			}
		})
	}
}
