package dut

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/trace"
)

func lbProg(t *testing.T) *ir.Program {
	t.Helper()
	p := &ir.Program{
		Name: "lb",
		Root: ir.Body(
			ir.SetM("h", ir.Hash(1, 4, ir.F("src_ip"), ir.F("dst_ip"), ir.F("src_port"), ir.F("dst_port"), ir.F("proto"))),
			ir.Blk("route", ir.FwdE(ir.M("h"))),
		),
	}
	return p.MustBuild()
}

func TestProcessForwarding(t *testing.T) {
	sw := New(lbProg(t), Config{Ports: 4})
	p := trace.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6, Len: 100}
	r := sw.Process(&p)
	if !r.Forwarded || r.Dropped {
		t.Fatal("packet should forward")
	}
	if r.OutPort >= 4 {
		t.Fatalf("port %d out of range", r.OutPort)
	}
	// Deterministic per 5-tuple.
	r2 := sw.Process(&p)
	if r2.OutPort != r.OutPort {
		t.Fatal("same flow must hash to the same port")
	}
}

func TestHashOfDeterministicAndModded(t *testing.T) {
	a := HashOf(7, []uint64{1, 2, 3}, 1024)
	b := HashOf(7, []uint64{1, 2, 3}, 1024)
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if a >= 1024 {
		t.Fatal("hash not reduced")
	}
	if HashOf(8, []uint64{1, 2, 3}, 1024) == a && HashOf(9, []uint64{1, 2, 3}, 1024) == a {
		t.Fatal("seeds should give different hashes (with high probability)")
	}
}

// TestHashOfPinned fixes HashOf's exact outputs: the switch's slot layout,
// the test generator's collision search and every golden replay depend on
// them.
func TestHashOfPinned(t *testing.T) {
	cases := []struct {
		seed uint32
		vals []uint64
		mod  uint64
		want uint64
	}{
		{0x0, nil, 0, 0},
		{0x0, []uint64{0x0}, 0, 1696784233},
		{0x1, []uint64{0x1}, 0, 1696784233},
		{0x7, []uint64{0x1, 0x2, 0x3}, 1024, 752},
		{0x7, []uint64{0x1, 0x2, 0x3}, 0, 450083568},
		{0x9e3779ba, []uint64{0xdeadbeef, 0x50}, 4096, 387},
		{0x85ebca72, []uint64{0xffffffffffffffff}, 1000, 263},
		{0x2a, []uint64{0xa, 0x14, 0x1e, 0x28, 0x32, 0x3c, 0x46, 0x50, 0x5a}, 65536, 54557},
	}
	for _, c := range cases {
		if got := HashOf(c.seed, c.vals, c.mod); got != c.want {
			t.Errorf("HashOf(%#x, %v, %d) = %d, want %d", c.seed, c.vals, c.mod, got, c.want)
		}
	}
}

// TestHashOfMatchesCRC32 checks the word-streaming CRC against crc32.Update
// over the same little-endian bytes, the seed-shift identity the Bloom
// filters and sketches use, and that HashOf never allocates.
func TestHashOfMatchesCRC32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 12; n++ {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		seed := rng.Uint32()
		buf := make([]byte, 8*n)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		if got, want := HashOf(seed, vals, 0), uint64(crc32.Update(seed, crc32.IEEETable, buf)); got != want {
			t.Fatalf("HashOf(%#x, %v) = %#x, crc32.Update gives %#x", seed, vals, got, want)
		}
	}
	vals := []uint64{1, 2, 3, 4, 5}
	for _, seed := range []uint32{0, 1, bloomSeed(2), sketchSeed(2), 0xffffffff} {
		if got, want := crcOf(7, vals)^seedShift(seed, 7, len(vals)), crcOf(seed, vals); got != want {
			t.Fatalf("seed %#x: shifted CRC %#x, direct %#x", seed, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { HashOf(7, vals, 1024) }); n != 0 {
		t.Fatalf("HashOf allocates %v times per call", n)
	}
}

func TestRegistersAndGuard(t *testing.T) {
	p := &ir.Program{
		Name: "cnt",
		Regs: []ir.RegDecl{{Name: "c", Bits: 32}},
		Root: ir.Body(
			ir.Add1("c"),
			ir.If2(ir.Ge(ir.R("c"), ir.C(3)),
				ir.Blk("cpu", ir.ToCPU(), ir.Set("c", ir.C(0))),
				ir.Blk("fwd", ir.Fwd(1))),
		),
	}
	sw := New(p.MustBuild(), Config{})
	pkt := trace.Packet{Len: 64}
	punts := 0
	for i := 0; i < 9; i++ {
		punts += sw.Process(&pkt).CPUPunts
	}
	if punts != 3 {
		t.Fatalf("every 3rd packet should punt: got %d punts in 9 packets", punts)
	}
	if sw.Reg("c") != 0 {
		t.Fatalf("counter should have reset, is %d", sw.Reg("c"))
	}
}

func TestHashTableConcrete(t *testing.T) {
	p := &ir.Program{
		Name:       "ht",
		HashTables: []ir.HashTableDecl{{Name: "flows", Size: 1024}},
		Root: ir.Body(
			&ir.HashAccess{
				Store: "flows", Key: ir.FlowKey(), Write: true, Inc: true, Value: ir.C(1), Dest: "cnt",
				OnEmpty:   ir.Blk("newf", ir.Fwd(1)),
				OnHit:     ir.Blk("hit", ir.Fwd(1)),
				OnCollide: ir.Blk("col", ir.Recirc()),
			},
		),
	}
	sw := New(p.MustBuild(), Config{})
	var hits, news int
	newHook := func(id int) {
		if lbl := sw.Prog.Node(id).Label; lbl == "hit" {
			hits++
		} else if lbl := sw.Prog.Node(id).Label; lbl == "newf" {
			news++
		}
	}
	sw.VisitHook = newHook
	a := trace.Packet{SrcIP: 1, Proto: 6}
	b := trace.Packet{SrcIP: 2, Proto: 6}
	sw.Process(&a)
	sw.Process(&a)
	sw.Process(&b)
	sw.Process(&a)
	if news != 2 {
		t.Fatalf("2 new flows expected, got %d", news)
	}
	if hits != 2 {
		t.Fatalf("2 hits expected, got %d", hits)
	}
}

func TestHashTableCollision(t *testing.T) {
	// Size-1 table: any two distinct keys collide.
	p := &ir.Program{
		Name:       "ht1",
		HashTables: []ir.HashTableDecl{{Name: "f", Size: 1}},
		Root: ir.Body(
			&ir.HashAccess{
				Store: "f", Key: []ir.Expr{ir.F("src_ip")}, Write: true,
				OnEmpty:   ir.Blk("e", ir.Fwd(1)),
				OnHit:     ir.Blk("h", ir.Fwd(1)),
				OnCollide: ir.Blk("c", ir.Recirc()),
			},
		),
	}
	sw := New(p.MustBuild(), Config{})
	r1 := sw.Process(&trace.Packet{SrcIP: 1})
	r2 := sw.Process(&trace.Packet{SrcIP: 2})
	if r1.Recircs != 0 || r2.Recircs != 1 {
		t.Fatalf("second distinct key should collide: %+v %+v", r1, r2)
	}
}

func TestBloomConcrete(t *testing.T) {
	p := &ir.Program{
		Name:   "bf",
		Blooms: []ir.BloomDecl{{Name: "seen", Bits: 4096, Hashes: 3}},
		Root: ir.Body(
			&ir.BloomOp{Filter: "seen", Key: ir.FlowKey(), Insert: true,
				OnHit:  ir.Blk("hit", ir.Fwd(1)),
				OnMiss: ir.Blk("miss", ir.ToCPU())},
		),
	}
	sw := New(p.MustBuild(), Config{})
	a := trace.Packet{SrcIP: 42}
	if sw.Process(&a).CPUPunts != 1 {
		t.Fatal("first sighting should miss")
	}
	if sw.Process(&a).CPUPunts != 0 {
		t.Fatal("second sighting should hit")
	}
}

func TestSketchConcrete(t *testing.T) {
	p := &ir.Program{
		Name:     "cms",
		Sketches: []ir.SketchDecl{{Name: "cnt", Rows: 3, Cols: 4096}},
		Root: ir.Body(
			&ir.SketchUpdate{Sketch: "cnt", Key: ir.FlowKey(), Inc: ir.C(1), Dest: "est"},
			ir.If2(ir.Ge(ir.M("est"), ir.C(5)),
				ir.Blk("heavy", ir.Mirror(7)),
				ir.Blk("light", ir.Fwd(1))),
		),
	}
	sw := New(p.MustBuild(), Config{})
	a := trace.Packet{SrcIP: 9}
	mirrors := 0
	for i := 0; i < 10; i++ {
		mirrors += sw.Process(&a).Mirrors
	}
	if mirrors != 6 { // packets 5..10
		t.Fatalf("mirrors = %d, want 6", mirrors)
	}
}

func TestTableMatch(t *testing.T) {
	p := &ir.Program{
		Name: "acl",
		Tables: []ir.TableDecl{{
			Name: "acl",
			Keys: []ir.Expr{ir.F("dst_port")},
			Entries: []ir.Entry{
				{Match: []ir.MatchSpec{ir.Exact(22)}, Action: ir.Blk("deny", ir.Drop())},
				{Match: []ir.MatchSpec{ir.Range(80, 90)}, Action: ir.Blk("web", ir.Fwd(2))},
			},
			Default: ir.Blk("cpu", ir.ToCPU()),
		}},
		Root: ir.Body(&ir.TableApply{Table: "acl"}),
	}
	sw := New(p.MustBuild(), Config{})
	if !sw.Process(&trace.Packet{DstPort: 22}).Dropped {
		t.Fatal("port 22 should drop")
	}
	if r := sw.Process(&trace.Packet{DstPort: 85}); !r.Forwarded || r.OutPort != 2 {
		t.Fatal("port 85 should forward to 2")
	}
	if sw.Process(&trace.Packet{DstPort: 9999}).CPUPunts != 1 {
		t.Fatal("unmatched should punt")
	}
}

func TestReplayMetrics(t *testing.T) {
	tr := trace.Generate(trace.GenOptions{Seed: 1, Packets: 2000, MeanIPDms: 5})
	sw := New(lbProg(t), Config{Ports: 4})
	m := sw.Replay(tr)
	if m.Seconds <= 0 {
		t.Fatal("no time bins")
	}
	tot := m.Totals()
	sum := 0.0
	for _, kb := range tot.PortKB {
		sum += kb
	}
	if sum <= 0 {
		t.Fatal("no traffic recorded")
	}
	if tot.CPUPkts != 0 {
		t.Fatal("lb should not punt")
	}
	if m.Render(map[string][]float64{"p0": m.PortKBps[0]}) == "" {
		t.Fatal("render empty")
	}
}

func TestRateMetrics(t *testing.T) {
	tot := Totals{PortKB: []float64{100, 10, 0}, CPUPkts: 30}
	if got := tot.Rate("cpu", 10); got != 3 {
		t.Fatalf("cpu rate = %v", got)
	}
	// Hottest port (100) vs fair share (110/3): 100*3/110.
	want := 100.0 * 3 / 110
	if got := tot.Rate("port_imbalance", 10); math.Abs(got-want) > 1e-9 {
		t.Fatalf("imbalance = %v, want %v", got, want)
	}
	balanced := Totals{PortKB: []float64{50, 50}}
	if got := balanced.Rate("port_imbalance", 1); got != 1 {
		t.Fatalf("balanced imbalance = %v, want 1", got)
	}
}

func TestVisitHookCoverage(t *testing.T) {
	prog := lbProg(t)
	sw := New(prog, Config{})
	visited := map[int]bool{}
	sw.VisitHook = func(id int) { visited[id] = true }
	sw.Process(&trace.Packet{})
	if len(visited) != len(prog.Nodes()) {
		t.Fatalf("visited %d of %d nodes", len(visited), len(prog.Nodes()))
	}
}

// Metadata is per packet: a slot never set in this pass reads 0 even if an
// earlier packet set it. Registers the program never declared read 0 and
// are created by their first assignment.
func TestMetaResetAndUndeclaredRegs(t *testing.T) {
	p := &ir.Program{
		Name: "slots",
		Root: ir.Body(
			ir.If2(ir.Eq(ir.M("seen"), ir.C(0)),
				ir.Blk("fresh", ir.Fwd(1)),
				ir.Blk("stale", ir.ToCPU())),
			ir.SetM("seen", ir.C(1)),
			ir.Set("ghost", ir.Add(ir.R("ghost"), ir.C(2))),
		),
	}
	prog, err := p.BuildUnvalidated()
	if err != nil {
		t.Fatal(err)
	}
	sw := New(prog, Config{})
	if sw.Reg("ghost") != 0 || sw.Reg("never") != 0 {
		t.Fatal("undeclared registers must read 0")
	}
	pkt := trace.Packet{Len: 64}
	for i := 0; i < 3; i++ {
		if r := sw.Process(&pkt); r.CPUPunts != 0 {
			t.Fatalf("packet %d saw the previous packet's metadata", i)
		}
	}
	if sw.Reg("ghost") != 6 {
		t.Fatalf("ghost = %d, want 6", sw.Reg("ghost"))
	}
}
