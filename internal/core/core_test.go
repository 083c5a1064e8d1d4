package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/testutil"
)

func almostEq(a, b, tol float64) bool { return testutil.ApproxEqual(a, b, tol, 0) }

// counterProg mirrors S12 (counter.p4): count TCP/UDP and mirror every
// N-th packet of each kind.
func counterProg(t testing.TB, n uint64) *ir.Program {
	p := &ir.Program{
		Name: "counter",
		Regs: []ir.RegDecl{{Name: "tcp_cnt", Bits: 32}, {Name: "udp_cnt", Bits: 32}},
		Root: ir.Body(
			ir.If2(ir.Eq(ir.F("proto"), ir.C(ir.ProtoTCP)),
				ir.Blk("tcp",
					ir.Add1("tcp_cnt"),
					ir.If2(ir.Ge(ir.R("tcp_cnt"), ir.C(n)),
						ir.Blk("tcp_sample", ir.Mirror(7), ir.Set("tcp_cnt", ir.C(0))),
						ir.Blk("tcp_fwd", ir.Fwd(1)))),
				ir.Blk("udp",
					ir.Add1("udp_cnt"),
					ir.If2(ir.Ge(ir.R("udp_cnt"), ir.C(n)),
						ir.Blk("udp_sample", ir.Mirror(7), ir.Set("udp_cnt", ir.C(0))),
						ir.Blk("udp_fwd", ir.Fwd(2))))),
		),
	}
	return p.MustBuild()
}

func TestProfileStatelessProgram(t *testing.T) {
	p := &ir.Program{
		Name: "fwd",
		Root: ir.Body(
			ir.If2(ir.Eq(ir.F("proto"), ir.C(ir.ProtoTCP)),
				ir.Blk("tcp", ir.Fwd(1)),
				ir.Blk("other", ir.Fwd(2))),
		),
	}
	prof, err := ProbProf(p.MustBuild(), nil, Options{Seed: 1, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Converged {
		t.Fatal("stateless program should converge")
	}
	tcp, _ := prof.ByLabel("tcp")
	if !almostEq(tcp.P.Float(), 1.0/256, 1e-9) {
		t.Fatalf("P(tcp) = %v", tcp.P.Float())
	}
	if prof.Coverage != 1 {
		t.Fatalf("coverage = %v", prof.Coverage)
	}
	// Nodes sorted ascending.
	for i := 1; i < len(prof.Nodes); i++ {
		if prof.Nodes[i].P.Less(prof.Nodes[i-1].P) {
			t.Fatal("profile not sorted")
		}
	}
}

// TestOutOfBoundsReadUnreached: a read at a concrete index past the end of
// a register array leaves its destination unchanged, in sym as on the
// device (dut). Metadata starts at 0, so the block that needs the read to
// yield 5 is unreachable, and the profile must say so rather than give it
// the 2^-32 of a havocked value.
func TestOutOfBoundsReadUnreached(t *testing.T) {
	p := &ir.Program{
		Name:      "oob-read",
		RegArrays: []ir.RegArrayDecl{{Name: "a", Size: 4, Bits: 32}},
		Root: ir.Body(
			&ir.ArrayRead{Array: "a", Index: ir.Bin{Op: ir.OpShl, A: ir.C(1), B: ir.C(63)}, Dest: "v"},
			ir.If2(ir.Eq(ir.M("v"), ir.C(5)),
				ir.Blk("x", ir.Fwd(1)),
				ir.Blk("y", ir.Fwd(2))),
		),
	}
	prof, err := ProbProf(p.MustBuild(), nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := prof.ByLabel("x"); x.Source != SrcUnreached || !x.P.IsZero() {
		t.Fatalf("block x: P = %v from %v, want 0, unreached", x.P.Float(), x.Source)
	}
	if y, _ := prof.ByLabel("y"); y.P.Float() != 1 {
		t.Fatalf("block y: P = %v, want 1", y.P.Float())
	}
}

func TestProfileWithSkewedOracle(t *testing.T) {
	p := &ir.Program{
		Name: "fwd",
		Root: ir.Body(
			ir.If2(ir.Eq(ir.F("proto"), ir.C(ir.ProtoTCP)),
				ir.Blk("tcp", ir.Fwd(1)),
				ir.Blk("other", ir.Fwd(2))),
		),
	}
	oracle := dist.NewProfile().SetField("proto", dist.MustFromPieces([]dist.Piece{
		{Lo: 6, Hi: 6, Mass: 0.9}, {Lo: 17, Hi: 17, Mass: 0.1},
	}))
	prof, err := ProbProf(p.MustBuild(), oracle, Options{Seed: 1, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	tcp, _ := prof.ByLabel("tcp")
	if !almostEq(tcp.P.Float(), 0.9, 1e-9) {
		t.Fatalf("P(tcp) under 90%% profile = %v", tcp.P.Float())
	}
}

func TestShallowGuardConvergesInMainLoop(t *testing.T) {
	prog := counterProg(t, 3)
	prof, err := ProbProf(prog, nil, Options{Seed: 1, MaxIters: 10, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	// With N=3 the main loop reaches the sample blocks directly.
	ts, ok := prof.ByLabel("tcp_sample")
	if !ok || ts.P.IsZero() {
		t.Fatalf("tcp_sample unreached: %+v", ts)
	}
	if ts.Source == SrcTelescope {
		t.Fatal("shallow guard should not be telescoped")
	}
}

func TestTelescopeDeepGuard(t *testing.T) {
	prog := counterProg(t, 64)
	prof, err := ProbProf(prog, nil, Options{Seed: 1, MaxIters: 8, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := prof.ByLabel("tcp_sample")
	if !ok {
		t.Fatal("tcp_sample missing")
	}
	if ts.Source != SrcTelescope {
		t.Fatalf("deep guard should be telescoped, got %v", ts.Source)
	}
	// The telescoped estimate is ~(1/256)^64 — far below linear float
	// range in the tails but exactly representable in log space.
	wantLog := 64 * math.Log10(1.0/256)
	if math.Abs(ts.P.Log10()-wantLog) > 1.0 {
		t.Fatalf("telescoped log10 = %v, want ≈ %v", ts.P.Log10(), wantLog)
	}
	// UDP mirror: (255/256)^64 — moderately likely.
	us, _ := prof.ByLabel("udp_sample")
	wantU := math.Pow(255.0/256, 64)
	if math.Abs(us.P.Float()-wantU) > 0.05 {
		t.Fatalf("P(udp_sample) = %v, want ≈ %v", us.P.Float(), wantU)
	}
}

func TestTelescopeAblation(t *testing.T) {
	prog := counterProg(t, 64)
	prof, err := ProbProf(prog, nil, Options{
		Seed: 1, MaxIters: 6, DisableTelescope: true, DisableSampling: true,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := prof.ByLabel("tcp_sample")
	if ts.Source == SrcTelescope {
		t.Fatal("telescope disabled but used")
	}
	if !ts.P.IsZero() {
		t.Fatal("without telescoping the deep block should be unreached by 6 iters")
	}
}

func TestSamplingFallbackCoversDeepBlocks(t *testing.T) {
	// Deep-ish guard (N=40) with telescoping off: only sampling can see it.
	prog := counterProg(t, 40)
	oracle := dist.NewProfile().SetField("proto", dist.MustFromPieces([]dist.Piece{
		{Lo: 6, Hi: 6, Mass: 0.5}, {Lo: 17, Hi: 17, Mass: 0.5},
	}))
	prof, err := ProbProf(prog, oracle, Options{
		Seed: 3, MaxIters: 5, DisableTelescope: true,
		SampleBudget: 20000, Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := prof.ByLabel("tcp_sample")
	if ts.Source != SrcSampled {
		t.Fatalf("want sampled estimate, got %v (p=%v)", ts.Source, ts.P)
	}
	// Every 40th TCP packet at 50% TCP: about 1/80 per packet.
	if ts.P.Float() < 0.004 || ts.P.Float() > 0.05 {
		t.Fatalf("sampled P = %v, want ≈ 1/80", ts.P.Float())
	}
}

func TestTelescopeWithTraceOracle(t *testing.T) {
	// Retransmission counter: reroute after 32 retransmissions
	// (Blink's essence). With a 2% retrans oracle the telescoped estimate
	// is 0.02^32, not (2^-32)^32.
	p := &ir.Program{
		Name: "blinkette",
		Regs: []ir.RegDecl{{Name: "last", Bits: 32}, {Name: "seen", Bits: 1}, {Name: "retrans", Bits: 32}},
		Root: ir.Body(
			ir.If2(ir.And(ir.Eq(ir.R("seen"), ir.C(1)), ir.Eq(ir.F("seq"), ir.R("last"))),
				ir.Blk("retrans", ir.Add1("retrans")),
				ir.Blk("normal", ir.Fwd(1))),
			ir.Set("last", ir.F("seq")),
			ir.Set("seen", ir.C(1)),
			ir.If1(ir.Gt(ir.R("retrans"), ir.C(32)), ir.Blk("reroute", ir.Fwd(3))),
		),
	}
	prog := p.MustBuild()
	oracle := dist.NewProfile().SetPairEq("seq", 0.02)
	prof, err := ProbProf(prog, oracle, Options{Seed: 1, MaxIters: 6, Gamma: 6, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := prof.ByLabel("reroute")
	if !ok || rr.Source != SrcTelescope {
		t.Fatalf("reroute should be telescoped: %+v", rr)
	}
	wantLog := 33 * math.Log10(0.02)
	if math.Abs(rr.P.Log10()-wantLog) > 2 {
		t.Fatalf("reroute log10 = %v, want ≈ %v", rr.P.Log10(), wantLog)
	}
}

func TestFindGuards(t *testing.T) {
	prog := counterProg(t, 10)
	gs := FindGuards(prog)
	if len(gs) != 2 {
		t.Fatalf("want 2 guards, got %d", len(gs))
	}
	for _, g := range gs {
		if g.Thresh != 10 || g.Op != ir.CmpGe {
			t.Fatalf("bad guard %+v", g)
		}
	}
}

func TestRepetitionsNeeded(t *testing.T) {
	g := Guard{Op: ir.CmpGe, Thresh: 32}
	if g.RepetitionsNeeded(1) != 32 {
		t.Fatalf("Ge 32 by 1: %d", g.RepetitionsNeeded(1))
	}
	if g.RepetitionsNeeded(2) != 16 {
		t.Fatalf("Ge 32 by 2: %d", g.RepetitionsNeeded(2))
	}
	gt := Guard{Op: ir.CmpGt, Thresh: 32}
	if gt.RepetitionsNeeded(1) != 33 {
		t.Fatalf("Gt 32 by 1: %d", gt.RepetitionsNeeded(1))
	}
}

func TestProfileRankingStable(t *testing.T) {
	prog := counterProg(t, 64)
	a, err := ProbProf(prog, nil, Options{Seed: 1, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProbProf(prog, nil, Options{Seed: 1, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Ranking(), b.Ranking()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("profiling should be deterministic")
		}
	}
}

func TestPacketSampler(t *testing.T) {
	prog := counterProg(t, 4)
	oracle := dist.NewProfile().
		SetField("proto", dist.Point(6)).
		SetPairEq("seq", 0.5)
	s := NewPacketSampler(prog, oracle, rand.New(rand.NewSource(42)))
	retrans := 0
	var prev uint32
	for i := 0; i < 2000; i++ {
		p := s.Next()
		if v, _ := p.Field("proto"); v != 6 {
			t.Fatal("sampler should honor point dist")
		}
		if i > 0 && p.Seq == prev {
			retrans++
		}
		prev = p.Seq
	}
	if retrans < 800 || retrans > 1200 {
		t.Fatalf("retrans draws = %d, want ≈ 1000", retrans)
	}
}

func TestDistGuardTelescoping(t *testing.T) {
	// NetCache-style: a sketch-fed heat counter guards a hot-key report at
	// threshold 64; the main loop can never accumulate 64 misses, but the
	// store-counter post-pass estimates it from P(miss)^64.
	p := &ir.Program{
		Name:     "heat",
		Sketches: []ir.SketchDecl{{Name: "stats", Rows: 3, Cols: 1024}},
		Fields: append(append([]ir.Field(nil), ir.StdFields...),
			ir.Field{Name: "key", Bits: 16}),
		Root: ir.Body(
			ir.If2(ir.Eq(ir.F("proto"), ir.C(ir.ProtoTCP)),
				ir.Blk("miss",
					&ir.SketchUpdate{Sketch: "stats", Key: []ir.Expr{ir.F("key")}, Inc: ir.C(1), Dest: "heat"},
					ir.If1(ir.Ge(ir.M("heat"), ir.C(64)),
						ir.Blk("hot_report", ir.Digest()))),
				ir.Blk("fwd", ir.Fwd(1))),
		),
	}
	prog := p.MustBuild()
	prof, err := ProbProf(prog, nil, Options{Seed: 1, MaxIters: 5, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	hot, ok := prof.ByLabel("hot_report")
	if !ok || hot.Source != SrcTelescope || hot.P.IsZero() {
		t.Fatalf("hot_report should get a store-counter estimate: %+v", hot)
	}
	// P(miss)=1/256 per packet; 64 repetitions => log10 ≈ -154.
	wantLog := 64 * math.Log10(1.0/256)
	if math.Abs(hot.P.Log10()-wantLog) > 5 {
		t.Fatalf("hot_report log10 = %v, want ≈ %v", hot.P.Log10(), wantLog)
	}
}

func TestDistGuardModulo(t *testing.T) {
	// htable.p4-style: mirror every 16th packet of a flow.
	p := &ir.Program{
		Name:       "htmod",
		HashTables: []ir.HashTableDecl{{Name: "fc", Size: 256}},
		Root: ir.Body(
			&ir.HashAccess{
				Store: "fc", Key: ir.FlowKey(), Write: true, Inc: true, Value: ir.C(1), Dest: "cnt",
				OnEmpty: ir.Blk("newf", ir.Fwd(1)),
				OnHit: ir.Blk("seen",
					ir.If2(ir.Eq(ir.Mod(ir.M("cnt"), ir.C(16)), ir.C(0)),
						ir.Blk("sample", ir.Mirror(7)),
						ir.Blk("pass", ir.Fwd(1)))),
				OnCollide: ir.Blk("clash", ir.Recirc()),
			},
		),
	}
	prog := p.MustBuild()
	prof, err := ProbProf(prog, nil, Options{Seed: 1, MaxIters: 5, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	sample, ok := prof.ByLabel("sample")
	if !ok || sample.P.IsZero() {
		t.Fatalf("sample unreached: %+v", sample)
	}
	// Steady state ≈ P(hit)/16. P(hit) approaches locality 0.9.
	seen, _ := prof.ByLabel("seen")
	want := seen.P.Float() / 16
	if sample.Source == SrcTelescope {
		if math.Abs(sample.P.Float()-want) > want {
			t.Fatalf("P(sample) = %v, want ≈ %v", sample.P.Float(), want)
		}
	}
}

func TestFindDistGuards(t *testing.T) {
	p := &ir.Program{
		Name:     "dg",
		Sketches: []ir.SketchDecl{{Name: "s", Rows: 3, Cols: 64}},
		Root: ir.Body(
			&ir.SketchUpdate{Sketch: "s", Key: ir.FlowKey(), Inc: ir.C(2), Dest: "est"},
			ir.If1(ir.Ge(ir.M("est"), ir.C(100)), ir.Blk("hot", ir.Digest())),
			ir.If1(ir.Eq(ir.Mod(ir.M("est"), ir.C(8)), ir.C(0)), ir.Blk("periodic", ir.Mirror(7))),
		),
	}
	prog := p.MustBuild()
	gs := findDistGuards(prog)
	if len(gs) != 2 {
		t.Fatalf("want 2 dist guards, got %d", len(gs))
	}
	var thresh, mod *distGuard
	for i := range gs {
		if gs[i].ModN > 0 {
			mod = &gs[i]
		} else {
			thresh = &gs[i]
		}
	}
	if thresh == nil || thresh.Thresh != 100 || thresh.Inc != 2 {
		t.Fatalf("threshold guard wrong: %+v", thresh)
	}
	if mod == nil || mod.ModN != 8 {
		t.Fatalf("modulo guard wrong: %+v", mod)
	}
}

func TestDistGuardLocalityFactor(t *testing.T) {
	// The per-flow counter advance includes the key-repeat factor; with
	// update probability 1 the estimate is locality^rept, not 1.
	p := &ir.Program{
		Name:     "hh",
		Sketches: []ir.SketchDecl{{Name: "c", Rows: 3, Cols: 64}},
		Root: ir.Body(
			&ir.SketchUpdate{Sketch: "c", Key: ir.FlowKey(), Inc: ir.C(1), Dest: "est"},
			ir.If1(ir.Ge(ir.M("est"), ir.C(50)), ir.Blk("hot", ir.Digest())),
		),
	}
	prog := p.MustBuild()
	prof, err := ProbProf(prog, nil, Options{Seed: 1, MaxIters: 4, DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	hot, _ := prof.ByLabel("hot")
	if hot.P.IsZero() || hot.P.Float() == 1 {
		t.Fatalf("hot estimate degenerate: %v", hot.P)
	}
	wantLog := 50 * math.Log10(0.9)
	if math.Abs(hot.P.Log10()-wantLog) > 1 {
		t.Fatalf("hot log10 = %v, want ≈ %v (0.9^50)", hot.P.Log10(), wantLog)
	}
}
