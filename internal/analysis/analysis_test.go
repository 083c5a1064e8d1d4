package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
)

func mustBuild(t *testing.T, p *ir.Program) *ir.Program {
	t.Helper()
	q, err := p.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return q
}

func mustBuildUnvalidated(t *testing.T, p *ir.Program) *ir.Program {
	t.Helper()
	q, err := p.BuildUnvalidated()
	if err != nil {
		t.Fatalf("BuildUnvalidated: %v", err)
	}
	return q
}

func hasDiag(r *analysis.Report, sev analysis.Severity, substr string) bool {
	for _, d := range r.Diags {
		if d.Severity == sev && strings.Contains(d.Msg, substr) {
			return true
		}
	}
	return false
}

// The verifier must report every malformed construct, where Build stops at
// the first of the same problems.
func TestVerifierCollectsAllErrors(t *testing.T) {
	p := mustBuildUnvalidated(t, &ir.Program{
		Name: "broken",
		Root: ir.Body(
			ir.Set("no_such_reg", ir.C(1)),
			ir.If1(ir.Eq(ir.F("no_such_field"), ir.C(3)), ir.Drop()),
			&ir.TableApply{Table: "no_such_table"},
			&ir.HashAccess{Store: "no_such_hash", Key: []ir.Expr{ir.F("src_ip")}},
		),
	})
	r := analysis.Analyze(p)
	for _, want := range []string{"no_such_reg", "no_such_field", "no_such_table", "no_such_hash"} {
		if !hasDiag(r, analysis.SevError, want) {
			t.Errorf("missing error diagnostic mentioning %q:\n%s", want, r)
		}
	}
	if r.Errors() < 4 {
		t.Errorf("Errors() = %d, want >= 4", r.Errors())
	}
}

// A table whose action re-applies the table must be reported as an error,
// and analysis must terminate (the CFG builder guards the recursion).
func TestVerifierRecursiveTableApply(t *testing.T) {
	p := mustBuildUnvalidated(t, &ir.Program{
		Name: "recur",
		Tables: []ir.TableDecl{{
			Name:    "loop",
			Keys:    []ir.Expr{ir.F("proto")},
			Default: ir.Blk("loop.again", &ir.TableApply{Table: "loop"}),
		}},
		Root: ir.Body(&ir.TableApply{Table: "loop"}, ir.Fwd(1)),
	})
	r := analysis.Analyze(p)
	if !hasDiag(r, analysis.SevError, "applied recursively") {
		t.Errorf("missing recursive-apply error:\n%s", r)
	}
}

// Constants that cannot fit the compared field's width are flagged.
func TestVerifierOutOfRangeConstant(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "widths",
		Root: ir.Body(
			// proto is 8 bits: == 300 can never be true.
			ir.If1(ir.Eq(ir.F("proto"), ir.C(300)), ir.Drop()),
			ir.Fwd(1),
		),
	})
	r := analysis.Analyze(p)
	if !hasDiag(r, analysis.SevWarn, "exceeds 8-bit field") {
		t.Errorf("missing out-of-range constant warning:\n%s", r)
	}
}

// Actions of a table that is never applied have no CFG path from the entry.
func TestReachabilityUnappliedTable(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "orphan",
		Tables: []ir.TableDecl{{
			Name:    "unused",
			Keys:    []ir.Expr{ir.F("dst_port")},
			Entries: []ir.Entry{{Match: []ir.MatchSpec{ir.Exact(80)}, Action: ir.Blk("unused.web", ir.Fwd(2))}},
			Default: ir.Blk("unused.def", ir.Drop()),
		}},
		Root: ir.Body(ir.Fwd(1)),
	})
	r := analysis.Analyze(p)
	web := p.NodeByLabel("unused.web")
	def := p.NodeByLabel("unused.def")
	if web == nil || def == nil {
		t.Fatal("table action blocks not found")
	}
	if !r.Unreachable[web.ID] || !r.Unreachable[def.ID] {
		t.Errorf("unapplied table actions not marked unreachable: %v\n%s", r.Unreachable, r)
	}
	if r.Unreachable[entry(p).ID] {
		t.Error("entry block marked unreachable")
	}
}

func entry(p *ir.Program) *ir.Block { return p.Root.(*ir.Block) }

// A branch contradicting its enclosing guard is statically dead; the guard's
// live arm is not.
func TestDeadBranchContradiction(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "contra",
		Root: ir.Body(
			ir.If2(ir.Eq(ir.F("proto"), ir.C(ir.ProtoUDP)),
				ir.Blk("udp",
					ir.If2(ir.Eq(ir.F("proto"), ir.C(ir.ProtoTCP)),
						ir.Blk("dead", ir.Drop()),
						ir.Blk("live", ir.Fwd(2)))),
				ir.Blk("other", ir.Fwd(1))),
		),
	})
	r := analysis.Analyze(p)
	dead := p.NodeByLabel("dead")
	if !r.Dead[dead.ID] {
		t.Errorf("contradictory branch not marked dead:\n%s", r)
	}
	for _, label := range []string{"udp", "live", "other"} {
		if b := p.NodeByLabel(label); r.Dead[b.ID] || r.Unreachable[b.ID] {
			t.Errorf("live block %q falsely pruned", label)
		}
	}
	if got := analysis.DeadBlocks(p); !got[dead.ID] {
		t.Errorf("DeadBlocks() = %v, want %d pruned", got, dead.ID)
	}
}

// Interval (not just equality) contradictions are caught.
func TestDeadBranchRangeContradiction(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "range",
		Root: ir.Body(
			ir.If1(ir.Lt(ir.F("pkt_len"), ir.C(100)),
				ir.Blk("small",
					ir.If1(ir.Gt(ir.F("pkt_len"), ir.C(200)),
						ir.Blk("impossible", ir.ToCPU())),
					ir.Fwd(1))),
			ir.Fwd(2),
		),
	})
	r := analysis.Analyze(p)
	if b := p.NodeByLabel("impossible"); !r.Dead[b.ID] {
		t.Errorf("range-contradictory branch not marked dead:\n%s", r)
	}
	if b := p.NodeByLabel("small"); r.Dead[b.ID] {
		t.Error("guard arm falsely marked dead")
	}
}

// The ISSUE's running example: testing TCP flag bits where the enclosing
// guards exclude TCP is semantically meaningless — but satisfiable in header
// space, so it must be a warning only, never in the prune set.
func TestTCPFlagsUnderUDPGuardWarns(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "flags",
		Root: ir.Body(
			ir.If1(ir.Eq(ir.F("proto"), ir.C(ir.ProtoUDP)),
				ir.Blk("udp",
					ir.If1(ir.FlagSet(ir.FlagSYN), ir.Blk("syn", ir.Drop())),
					ir.Fwd(1))),
			ir.Fwd(2),
		),
	})
	r := analysis.Analyze(p)
	if !hasDiag(r, analysis.SevWarn, "exclude proto == TCP") {
		t.Errorf("missing tcp_flags-under-non-TCP-guard warning:\n%s", r)
	}
	if b := p.NodeByLabel("syn"); r.Dead[b.ID] || r.Unreachable[b.ID] {
		t.Error("flag test arm must not be pruned (it is satisfiable in header space)")
	}
}

// Branches on persistent state must never be pruned: the pass knows nothing
// about register contents.
func TestStatefulBranchesStayLive(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "stateful",
		Regs: []ir.RegDecl{{Name: "count", Bits: 32}},
		Root: ir.Body(
			ir.Add1("count"),
			ir.If2(ir.Gt(ir.R("count"), ir.C(1000)),
				ir.Blk("hot", ir.ToCPU()),
				ir.Blk("cold", ir.Fwd(1))),
		),
	})
	r := analysis.Analyze(p)
	if len(r.Dead) > 0 || len(r.Unreachable) > 0 {
		t.Errorf("stateful branches pruned: dead=%v unreachable=%v", r.Dead, r.Unreachable)
	}
}

// A tautological comparison (16-bit field <= 65535) pins the condition and
// kills the else arm.
func TestConditionAlwaysTrue(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "taut",
		Root: ir.Body(
			ir.If2(ir.Le(ir.F("pkt_len"), ir.C(65535)),
				ir.Blk("yes", ir.Fwd(1)),
				ir.Blk("no", ir.Drop())),
		),
	})
	r := analysis.Analyze(p)
	if !hasDiag(r, analysis.SevWarn, "always true") {
		t.Errorf("missing always-true warning:\n%s", r)
	}
	if b := p.NodeByLabel("no"); !r.Dead[b.ID] {
		t.Errorf("else arm of tautology not dead:\n%s", r)
	}
}

// Def-use: unwritten metadata reads, register dead stores, and the
// state-dependency graph.
func TestDefUse(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "defuse",
		Regs: []ir.RegDecl{
			{Name: "written_only", Bits: 32},
			{Name: "used", Bits: 32},
		},
		Root: ir.Body(
			ir.Set("written_only", ir.C(7)),
			ir.Set("used", ir.Add(ir.R("used"), ir.C(1))),
			ir.If1(ir.Gt(ir.M("never_written"), ir.C(0)), ir.Drop()),
			ir.Fwd(1),
		),
	})
	r := analysis.Analyze(p)
	if !hasDiag(r, analysis.SevWarn, `register "written_only" is written but never read`) {
		t.Errorf("missing register dead-store warning:\n%s", r)
	}
	if !hasDiag(r, analysis.SevWarn, `metadata "never_written" is read but never written`) {
		t.Errorf("missing unwritten-metadata warning:\n%s", r)
	}
	if r.Deps == nil {
		t.Fatal("no dependency graph")
	}
	var usedDep *analysis.StateDep
	for i := range r.Deps.States {
		if r.Deps.States[i].Kind == "register" && r.Deps.States[i].Name == "used" {
			usedDep = &r.Deps.States[i]
		}
	}
	if usedDep == nil {
		t.Fatal(`register "used" missing from dependency graph`)
	}
	if len(usedDep.Readers) == 0 || len(usedDep.Writers) == 0 {
		t.Errorf(`register "used" deps incomplete: readers=%v writers=%v`,
			usedDep.Readers, usedDep.Writers)
	}
}

// Metadata read before any possible write observes the implicit zero.
func TestMetaReadBeforeWrite(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "early",
		Root: ir.Body(
			ir.If1(ir.Gt(ir.M("score"), ir.C(5)), ir.Drop()), // read...
			ir.SetM("score", ir.F("ttl")),                    // ...before this write
			ir.Fwd(1),
		),
	})
	r := analysis.Analyze(p)
	if !hasDiag(r, analysis.SevWarn, "read before its first write") {
		t.Errorf("missing read-before-write warning:\n%s", r)
	}
}

// Dead-arm detection must follow refinement into table entry actions.
func TestTableEntryRefinement(t *testing.T) {
	p := mustBuild(t, &ir.Program{
		Name: "tblref",
		Tables: []ir.TableDecl{{
			Name: "acl",
			Keys: []ir.Expr{ir.F("proto")},
			Entries: []ir.Entry{{
				Match: []ir.MatchSpec{ir.Exact(ir.ProtoTCP)},
				Action: ir.Blk("acl.tcp",
					ir.If2(ir.Eq(ir.F("proto"), ir.C(ir.ProtoUDP)),
						ir.Blk("acl.dead", ir.Drop()),
						ir.Blk("acl.live", ir.Fwd(2)))),
			}},
			Default: ir.Blk("acl.def", ir.Fwd(1)),
		}},
		Root: ir.Body(&ir.TableApply{Table: "acl"}),
	})
	r := analysis.Analyze(p)
	if b := p.NodeByLabel("acl.dead"); !r.Dead[b.ID] {
		t.Errorf("dead arm inside table entry action not found:\n%s", r)
	}
	for _, label := range []string{"acl.tcp", "acl.live", "acl.def"} {
		if b := p.NodeByLabel(label); r.Dead[b.ID] || r.Unreachable[b.ID] {
			t.Errorf("live table block %q falsely pruned", label)
		}
	}
}
