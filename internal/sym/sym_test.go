package sym

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/prob"
	"repro/internal/programs"
	"repro/internal/testutil"
)

func almostEq(a, b, tol float64) bool { return testutil.ApproxEqual(a, b, tol, 0) }

// tcpUDP is the canonical two-way branch program: count TCP vs UDP.
func tcpUDP(t *testing.T) *ir.Program {
	t.Helper()
	p := &ir.Program{
		Name: "tcp-udp",
		Regs: []ir.RegDecl{{Name: "tcp_cnt", Bits: 32}, {Name: "udp_cnt", Bits: 32}},
		Root: ir.Body(
			ir.If2(ir.Eq(ir.F("proto"), ir.C(ir.ProtoTCP)),
				ir.Blk("tcp", ir.Add1("tcp_cnt"), ir.Fwd(1)),
				ir.Blk("udp", ir.Add1("udp_cnt"), ir.Fwd(2))),
		),
	}
	return p.MustBuild()
}

func TestStatelessBranchProbabilities(t *testing.T) {
	prog := tcpUDP(t)
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("want 2 paths, got %d", len(paths))
	}
	counter := mc.NewCounter(e.Space, nil)
	probs := NodeProbs(paths, counter, len(prog.Nodes()))
	tcp := prog.NodeByLabel("tcp")
	udp := prog.NodeByLabel("udp")
	// Uniform 8-bit proto: P(proto==6) = 1/256.
	if !almostEq(probs[tcp.ID].Float(), 1.0/256, 1e-9) {
		t.Fatalf("P(tcp) = %v", probs[tcp.ID].Float())
	}
	if !almostEq(probs[udp.ID].Float(), 255.0/256, 1e-9) {
		t.Fatalf("P(udp) = %v", probs[udp.ID].Float())
	}
	// Entry node probability is 1.
	if !almostEq(probs[0].Float(), 1, 1e-9) {
		t.Fatalf("P(entry) = %v", probs[0].Float())
	}
}

func TestStatefulForkGrowthAndMerge(t *testing.T) {
	prog := tcpUDP(t)
	e := NewEngine(prog, Options{Greybox: true})
	counter := mc.NewCounter(e.Space, nil)

	// Without merging: 2^t paths.
	paths := e.Initial()
	var err error
	for i := 0; i < 5; i++ {
		paths, err = e.Step(paths, i)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(paths) != 32 {
		t.Fatalf("unmerged paths = %d, want 32", len(paths))
	}

	// With merging: states are (tcp_cnt, udp_cnt) with cnt sums = t,
	// i.e. t+1 states.
	e2 := NewEngine(prog, Options{Greybox: true, Merge: true})
	c2 := mc.NewCounter(e2.Space, nil)
	paths = e2.Initial()
	for i := 0; i < 5; i++ {
		paths, err = e2.Step(paths, i)
		if err != nil {
			t.Fatal(err)
		}
		paths = Merge(paths, c2)
	}
	if len(paths) != 6 {
		t.Fatalf("merged paths = %d, want 6", len(paths))
	}
	// Total probability conserved.
	total := prob.Zero()
	for _, p := range paths {
		total = total.Add(PathProb(p, c2))
	}
	if !almostEq(total.Float(), 1, 1e-6) {
		t.Fatalf("total mass after merge = %v", total.Float())
	}
	_ = counter
}

func TestGuardedDeepBlock(t *testing.T) {
	// Sample to CPU once the TCP counter reaches 3.
	p := &ir.Program{
		Name: "deep",
		Regs: []ir.RegDecl{{Name: "cnt", Bits: 32}},
		Root: ir.Body(
			ir.If1(ir.Eq(ir.F("proto"), ir.C(ir.ProtoTCP)), ir.Blk("count", ir.Add1("cnt"))),
			ir.If2(ir.Ge(ir.R("cnt"), ir.C(3)),
				ir.Blk("cpu", ir.ToCPU(), ir.Set("cnt", ir.C(0))),
				ir.Blk("fwd", ir.Fwd(1))),
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true, Merge: true})
	counter := mc.NewCounter(e.Space, nil)
	paths := e.Initial()
	var err error
	var lastProbs []prob.P
	for i := 0; i < 3; i++ {
		paths, err = e.Step(paths, i)
		if err != nil {
			t.Fatal(err)
		}
		lastProbs = NodeProbs(paths, counter, len(prog.Nodes()))
		paths = Merge(paths, counter)
	}
	cpu := prog.NodeByLabel("cpu")
	// P(cpu at packet 3) = P(all three packets TCP) = (1/256)^3.
	want := math.Pow(1.0/256, 3)
	if !almostEq(lastProbs[cpu.ID].Float(), want, want*1e-6) {
		t.Fatalf("P(cpu) = %v, want %v", lastProbs[cpu.ID].Float(), want)
	}
}

func TestMaskedFlagCondition(t *testing.T) {
	p := &ir.Program{
		Name: "syn",
		Root: ir.Body(
			ir.If2(ir.FlagSet(ir.FlagSYN),
				ir.Blk("syn", ir.ToCPU()),
				ir.Blk("other", ir.Fwd(1))),
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	counter := mc.NewCounter(e.Space, nil)
	probs := NodeProbs(paths, counter, len(prog.Nodes()))
	syn := prog.NodeByLabel("syn")
	// Uniform flags: P(bit set) = 1/2.
	if !almostEq(probs[syn.ID].Float(), 0.5, 1e-9) {
		t.Fatalf("P(syn) = %v, want 0.5", probs[syn.ID].Float())
	}
}

func TestCrossPacketRetransConstraint(t *testing.T) {
	// Blink-style: remember last seq, flag a retransmission.
	p := &ir.Program{
		Name: "retrans",
		Regs: []ir.RegDecl{{Name: "last_seq", Bits: 32}, {Name: "seen", Bits: 1}},
		Root: ir.Body(
			ir.If2(ir.And(ir.Eq(ir.R("seen"), ir.C(1)), ir.Eq(ir.F("seq"), ir.R("last_seq"))),
				ir.Blk("retrans", ir.ToCPU()),
				ir.Blk("normal", ir.Fwd(1))),
			ir.Set("last_seq", ir.F("seq")),
			ir.Set("seen", ir.C(1)),
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	counter := mc.NewCounter(e.Space, nil)
	probs := NodeProbs(paths, counter, len(prog.Nodes()))
	re := prog.NodeByLabel("retrans")
	// P(p1.seq == p0.seq) uniform 32-bit = 2^-32.
	want := 1.0 / math.Pow(2, 32)
	if !almostEq(probs[re.ID].Float(), want, want*1e-6) {
		t.Fatalf("P(retrans) = %v, want %v", probs[re.ID].Float(), want)
	}
	// These paths carry symbolic register state and must not merge.
	mergeCount := 0
	for _, q := range paths {
		if q.StateMergeable() {
			mergeCount++
		}
	}
	if mergeCount == len(paths) {
		t.Fatal("retrans paths should carry symbolic state")
	}
}

func TestHashGreyboxForks(t *testing.T) {
	p := &ir.Program{
		Name:       "ht",
		HashTables: []ir.HashTableDecl{{Name: "flows", Size: 1024}},
		Root: ir.Body(
			&ir.HashAccess{
				Store: "flows", Key: ir.FlowKey(), Write: true, Inc: true,
				Value:     ir.C(1),
				OnEmpty:   ir.Blk("new_flow", ir.Fwd(1)),
				OnHit:     ir.Blk("seen_flow", ir.Fwd(1)),
				OnCollide: ir.Blk("collision", ir.Recirc()),
			},
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// Empty table: only the new_flow arm is possible.
	if len(paths) != 1 {
		t.Fatalf("first packet should have 1 arm, got %d", len(paths))
	}
	paths, err = e.Step(paths, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Second packet: empty/hit/collide all possible.
	if len(paths) != 3 {
		t.Fatalf("second packet should fork 3 arms, got %d", len(paths))
	}
	counter := mc.NewCounter(e.Space, nil)
	total := prob.Zero()
	for _, q := range paths {
		total = total.Add(PathProb(q, counter))
	}
	if !almostEq(total.Float(), 1, 1e-9) {
		t.Fatalf("greybox fork mass = %v", total.Float())
	}
}

func TestBaselineHashForksGrow(t *testing.T) {
	p := &ir.Program{
		Name:       "ht",
		HashTables: []ir.HashTableDecl{{Name: "flows", Size: 64}},
		Root: ir.Body(
			&ir.HashAccess{
				Store: "flows", Key: ir.FlowKey(), Write: true,
				Value:     ir.C(1),
				OnEmpty:   ir.Blk("new_flow", ir.Fwd(1)),
				OnHit:     ir.Blk("seen_flow", ir.Fwd(1)),
				OnCollide: ir.Blk("collision", ir.Recirc()),
			},
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: false})
	paths := e.Initial()
	var err error
	counts := []int{}
	for i := 0; i < 3; i++ {
		paths, err = e.Step(paths, i)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(paths))
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Fatalf("baseline path counts should grow: %v", counts)
	}
	if e.Stats.ArrayBytes == 0 {
		t.Fatal("baseline should account array state bytes")
	}
}

func TestBaselineBudgetExceeded(t *testing.T) {
	p := &ir.Program{
		Name:       "ht",
		HashTables: []ir.HashTableDecl{{Name: "flows", Size: 64}},
		Root: ir.Body(
			&ir.HashAccess{
				Store: "flows", Key: ir.FlowKey(), Write: true,
				OnEmpty:   ir.Blk("e", ir.Fwd(1)),
				OnHit:     ir.Blk("h", ir.Fwd(1)),
				OnCollide: ir.Blk("c", ir.Fwd(1)),
			},
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: false, MaxPaths: 10})
	paths := e.Initial()
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		paths, err = e.Step(paths, i)
	}
	if err != ErrBudget {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
}

func TestBloomGreybox(t *testing.T) {
	p := &ir.Program{
		Name:   "bf",
		Blooms: []ir.BloomDecl{{Name: "seen", Bits: 1024, Hashes: 3}},
		Root: ir.Body(
			&ir.BloomOp{
				Filter: "seen", Key: ir.FlowKey(), Insert: true,
				OnHit:  ir.Blk("hit", ir.Fwd(1)),
				OnMiss: ir.Blk("miss", ir.ToCPU()),
			},
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// Empty filter: only the miss arm.
	if len(paths) != 1 {
		t.Fatalf("want 1 arm on empty filter, got %d", len(paths))
	}
	paths, err = e.Step(paths, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("want hit+miss after one insert, got %d", len(paths))
	}
}

func TestSketchGreyboxModBranch(t *testing.T) {
	p := &ir.Program{
		Name:     "cms",
		Sketches: []ir.SketchDecl{{Name: "cnt", Rows: 3, Cols: 1024}},
		Root: ir.Body(
			&ir.SketchUpdate{Sketch: "cnt", Key: ir.FlowKey(), Inc: ir.C(1), Dest: "est"},
			ir.If2(ir.Eq(ir.Mod(ir.M("est"), ir.C(4)), ir.C(0)),
				ir.Blk("mirror", ir.Mirror(9)),
				ir.Blk("fwd", ir.Fwd(1))),
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	counter := mc.NewCounter(e.Space, nil)
	paths := e.Initial()
	var err error
	total := prob.Zero()
	for i := 0; i < 4; i++ {
		paths, err = e.Step(paths, i)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range paths {
		total = total.Add(PathProb(q, counter))
	}
	if !almostEq(total.Float(), 1, 1e-6) {
		t.Fatalf("sketch branch mass = %v", total.Float())
	}
}

func TestTableApply(t *testing.T) {
	p := &ir.Program{
		Name: "acl",
		Tables: []ir.TableDecl{{
			Name: "acl",
			Keys: []ir.Expr{ir.F("dst_port")},
			Entries: []ir.Entry{
				{Match: []ir.MatchSpec{ir.Exact(22)}, Action: ir.Blk("ssh", ir.Drop())},
				{Match: []ir.MatchSpec{ir.Exact(80)}, Action: ir.Blk("http", ir.Fwd(1))},
			},
			Default: ir.Blk("miss", ir.ToCPU()),
		}},
		Root: ir.Body(&ir.TableApply{Table: "acl"}),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("want 3 table paths, got %d", len(paths))
	}
	counter := mc.NewCounter(e.Space, nil)
	probs := NodeProbs(paths, counter, len(prog.Nodes()))
	ssh := prog.NodeByLabel("ssh")
	miss := prog.NodeByLabel("miss")
	if !almostEq(probs[ssh.ID].Float(), 1.0/65536, 1e-12) {
		t.Fatalf("P(ssh) = %v", probs[ssh.ID].Float())
	}
	if !almostEq(probs[miss.ID].Float(), 65534.0/65536, 1e-9) {
		t.Fatalf("P(miss) = %v", probs[miss.ID].Float())
	}
}

func TestDropOptimization(t *testing.T) {
	p := &ir.Program{
		Name: "dropper",
		Root: ir.Body(
			ir.If1(ir.Lt(ir.F("ttl"), ir.C(2)), ir.Blk("expired", ir.Drop())),
			ir.Blk("after", ir.Fwd(1)),
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true, DropOptimization: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	after := prog.NodeByLabel("after")
	for _, q := range paths {
		dropped := false
		for _, a := range q.Actions {
			if a.Kind == ir.ActDrop {
				dropped = true
			}
		}
		if dropped && q.Visited(after.ID) {
			t.Fatal("drop optimization should halt the packet's processing")
		}
	}
}

func TestArrayReadWrite(t *testing.T) {
	p := &ir.Program{
		Name:      "arr",
		Regs:      []ir.RegDecl{{Name: "rr", Bits: 8}},
		RegArrays: []ir.RegArrayDecl{{Name: "paths", Size: 4, Bits: 32}},
		Root: ir.Body(
			&ir.ArrayWrite{Array: "paths", Index: ir.R("rr"), Value: ir.C(7)},
			&ir.ArrayRead{Array: "paths", Index: ir.R("rr"), Dest: "v"},
			ir.If2(ir.Eq(ir.M("v"), ir.C(7)),
				ir.Blk("ok", ir.Fwd(1)),
				ir.Blk("bad", ir.Drop())),
			ir.Set("rr", ir.Mod(ir.Add(ir.R("rr"), ir.C(1)), ir.C(4))),
		),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("deterministic array program should have 1 path, got %d", len(paths))
	}
	bad := prog.NodeByLabel("bad")
	if paths[0].VisitCount(bad.ID) > 0 {
		t.Fatal("read-after-write should see the written value")
	}
}

// A computed index of 2^63 or more is out of bounds, not a negative int:
// the write is dropped and the read is unconstrained, as on the device.
func TestArrayIndexBeyondInt(t *testing.T) {
	huge := ir.Bin{Op: ir.OpShl, A: ir.C(1), B: ir.C(63)}
	prog := (&ir.Program{
		Name:      "huge-index",
		RegArrays: []ir.RegArrayDecl{{Name: "a", Size: 4, Bits: 32}},
		Root: ir.Body(
			&ir.ArrayWrite{Array: "a", Index: huge, Value: ir.C(7)},
			&ir.ArrayRead{Array: "a", Index: huge, Dest: "v"},
			ir.Fwd(1),
		),
	}).MustBuild()
	paths, err := NewEngine(prog, Options{Greybox: true}).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		for i, v := range p.Arrays["a"] {
			if v.IsConcrete() && v.C == 7 {
				t.Fatalf("a[%d] took the out-of-bounds write", i)
			}
		}
	}
}

func TestVisitsResetPerPacket(t *testing.T) {
	prog := tcpUDP(t)
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	p0 := paths[0]
	v1 := len(p0.VisitedNodes())
	paths, err = e.Step(paths, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v2 := len(paths[0].VisitedNodes()); v2 == 0 || v2 > v1+1 {
		t.Fatalf("visits should track only the current packet: %d", v2)
	}
	if paths[0].VisitCount(0) != 2 {
		t.Fatalf("entry should have 2 cumulative visits, got %d", paths[0].VisitCount(0))
	}
}

func TestTableDefaultProbabilityExact(t *testing.T) {
	// Multi-key entries: the default path's disjoint miss-way
	// decomposition must count exactly 1 - sum(entry probabilities).
	p := &ir.Program{
		Name: "acl2",
		Tables: []ir.TableDecl{{
			Name: "acl",
			Keys: []ir.Expr{ir.F("dst_port"), ir.F("proto")},
			Entries: []ir.Entry{
				{Match: []ir.MatchSpec{ir.Exact(22), ir.Exact(6)}, Action: ir.Blk("e0", ir.Drop())},
				{Match: []ir.MatchSpec{ir.Range(80, 89), ir.Exact(6)}, Action: ir.Blk("e1", ir.Fwd(1))},
			},
			Default:  ir.Blk("miss", ir.ToCPU()),
			Disjoint: true,
		}},
		Root: ir.Body(&ir.TableApply{Table: "acl"}),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	counter := mc.NewCounter(e.Space, nil)
	probs := NodeProbs(paths, counter, len(prog.Nodes()))
	miss := prog.NodeByLabel("miss")
	pe0 := 1.0 / 65536 * (1.0 / 256)
	pe1 := 10.0 / 65536 * (1.0 / 256)
	want := 1 - pe0 - pe1
	if math.Abs(probs[miss.ID].Float()-want) > 1e-9 {
		t.Fatalf("P(miss) = %v, want %v", probs[miss.ID].Float(), want)
	}
	// Total probability over all terminal arms is 1.
	total := prob.Zero()
	for _, q := range paths {
		total = total.Add(PathProb(q, counter))
	}
	if math.Abs(total.Float()-1) > 1e-9 {
		t.Fatalf("table paths total %v", total.Float())
	}
}

func TestMergeConservesProbability(t *testing.T) {
	// Property: merging never changes the total probability mass.
	prog := tcpUDP(t)
	e := NewEngine(prog, Options{Greybox: true})
	counter := mc.NewCounter(e.Space, nil)
	paths := e.Initial()
	var err error
	for i := 0; i < 6; i++ {
		paths, err = e.Step(paths, i)
		if err != nil {
			t.Fatal(err)
		}
		before := prob.Zero()
		for _, q := range paths {
			before = before.Add(PathProb(q, counter))
		}
		paths = Merge(paths, counter)
		after := prob.Zero()
		for _, q := range paths {
			after = after.Add(PathProb(q, counter))
		}
		if math.Abs(before.Float()-after.Float()) > 1e-9 {
			t.Fatalf("iteration %d: merge changed mass %v -> %v", i, before.Float(), after.Float())
		}
	}
}

func TestSymbolicTableEntries(t *testing.T) {
	// The §6 extension: unknown installed entries become symbolic. A NAT
	// with 3 unknown mappings: matching one forwards; missing all punts.
	p := &ir.Program{
		Name: "symnat",
		Tables: []ir.TableDecl{{
			Name:            "nat",
			Keys:            []ir.Expr{ir.F("src_port")},
			Default:         ir.Blk("nat_miss", ir.ToCPU()),
			SymbolicEntries: 3,
			SymbolicAction:  ir.Blk("nat_hit", ir.Fwd(1)),
		}},
		Root: ir.Body(&ir.TableApply{Table: "nat"}),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 symbolic-entry paths + 1 default.
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4", len(paths))
	}
	counter := mc.NewCounter(e.Space, nil)
	probs := NodeProbs(paths, counter, len(prog.Nodes()))
	hit := prog.NodeByLabel("nat_hit")
	// Each unknown entry matches a uniform random key with prob 1/65536.
	want := 3.0 / 65536
	if math.Abs(probs[hit.ID].Float()-want) > 1e-7 {
		t.Fatalf("P(hit) = %v, want %v", probs[hit.ID].Float(), want)
	}
	miss := prog.NodeByLabel("nat_miss")
	if math.Abs(probs[miss.ID].Float()-(1-want)) > 1e-4 {
		t.Fatalf("P(miss) = %v, want %v", probs[miss.ID].Float(), 1-want)
	}
}

func TestSymbolicEntriesPersistAcrossPackets(t *testing.T) {
	// The same symbolic entry matched by two packets forces equal keys —
	// the persistent-entry semantics.
	p := &ir.Program{
		Name: "symnat2",
		Tables: []ir.TableDecl{{
			Name:            "nat",
			Keys:            []ir.Expr{ir.F("src_port")},
			Default:         ir.Blk("miss", ir.Drop()),
			SymbolicEntries: 1,
			SymbolicAction:  ir.Blk("hit", ir.Fwd(1)),
		}},
		Root: ir.Body(&ir.TableApply{Table: "nat"}),
	}
	prog := p.MustBuild()
	e := NewEngine(prog, Options{Greybox: true})
	paths, err := e.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	counter := mc.NewCounter(e.Space, nil)
	// Find the hit-hit path: both packets matched the same unknown entry,
	// so P = P(p0.src_port == E) * P(p1.src_port == E) with E shared:
	// sum over E of (1/65536)^2 * 65536 = 1/65536... but conditioned per
	// path the mass is 65536 * (1/65536)^3 — exactly 1/65536^2.
	hit := prog.NodeByLabel("hit")
	var hitHit *Path
	for _, q := range paths {
		if q.VisitCount(hit.ID) == 2 {
			hitHit = q
		}
	}
	if hitHit == nil {
		t.Fatal("no hit-hit path")
	}
	pr := PathProb(hitHit, counter)
	want := 1.0 / (65536.0 * 65536.0)
	if pr.Float() < want/10 || pr.Float() > want*10 {
		t.Fatalf("P(hit,hit) = %v, want ≈ %v", pr.Float(), want)
	}
}

func BenchmarkSymStepBlink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(programs.Blink(), Options{Greybox: true, Merge: true, MaxPaths: 1 << 16})
		counter := mc.NewCounter(e.Space, nil)
		paths := e.Initial()
		var err error
		for k := 0; k < 3; k++ {
			paths, err = e.Step(paths, k)
			if err != nil {
				b.Fatal(err)
			}
			paths = Merge(paths, counter)
		}
	}
}

// BenchmarkSymStepSwitch times switch.p4's first Step at profile_wide's
// 30000-path budget on one worker. The step forks at every table entry and
// checks each arm, so forking and sliced feasibility checks dominate it.
// The step exceeds the budget, and it is timed up to the fork at which the
// excess becomes certain (Options.MaxPaths); figures taken before that
// trip moved into the block loop timed the whole statement and do not
// compare with these.
func BenchmarkSymStepSwitch(b *testing.B) {
	prog := programs.SwitchP4()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(prog, Options{Greybox: true, Merge: true, MaxPaths: 30000, Workers: 1})
		if _, err := e.Step(e.Initial(), 0); err != nil && !errors.Is(err, ErrBudget) {
			b.Fatal(err)
		}
	}
}
