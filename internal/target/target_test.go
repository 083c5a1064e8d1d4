package target

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
)

// storeProg declares two hash tables (2048 and 64 slots), a 1<<16-bit
// Bloom filter, a 2048-column sketch, a 300-cell register array and a
// match-action table with the given number of entries.
func storeProg(t *testing.T, entries int) *ir.Program {
	t.Helper()
	tbl := ir.TableDecl{Name: "ports", Keys: []ir.Expr{ir.F("dst_port")}, Default: ir.Blk("miss", ir.Drop())}
	for i := 0; i < entries; i++ {
		tbl.Entries = append(tbl.Entries, ir.Entry{
			Match:  []ir.MatchSpec{{Kind: ir.MatchExact, Lo: uint64(i)}},
			Action: ir.Fwd(1),
		})
	}
	p := &ir.Program{
		Name:       "stores",
		RegArrays:  []ir.RegArrayDecl{{Name: "ring", Size: 300, Bits: 32}},
		HashTables: []ir.HashTableDecl{{Name: "big", Size: 2048, Seed: 1}, {Name: "small", Size: 64, Seed: 2}},
		Blooms:     []ir.BloomDecl{{Name: "seen", Bits: 1 << 16, Hashes: 3}},
		Sketches:   []ir.SketchDecl{{Name: "cms", Rows: 3, Cols: 2048}},
		Tables:     []ir.TableDecl{tbl},
		Root:       ir.Body(&ir.TableApply{Table: "ports"}),
	}
	return p.MustBuild()
}

// The nil model is the idealized device: every method must behave as a
// no-op so engine code can thread Options.Target unconditionally.
func TestNilModelIsIdealized(t *testing.T) {
	var m *Model
	if m.StageLimit() != 0 {
		t.Fatalf("nil StageLimit = %d, want 0", m.StageLimit())
	}
	if got := m.Action(ir.ActRecirculate); got != ir.ActRecirculate {
		t.Fatalf("nil model must recirculate, got %v", got)
	}
	if m.Exact() {
		t.Fatal("nil model must not be exact-state")
	}
	if !m.IsIdealized() {
		t.Fatal("nil model must report idealized")
	}
	if got := m.CanonicalName(); got != "idealized" {
		t.Fatalf("nil CanonicalName = %q", got)
	}
	stages := 0
	for i := 0; i < 100; i++ {
		if _, ok := m.ChargeStage(&stages); !ok {
			t.Fatal("nil model has no stage budget")
		}
	}
	if stages != 0 {
		t.Fatalf("nil model advanced the stage count to %d", stages)
	}
	if m.Limits() != "none" {
		t.Fatalf("nil Limits = %q", m.Limits())
	}
}

// Lowering for an idealized model is the identity: the same pointer comes
// back, so idealized runs pay nothing and keep every declared size.
func TestIdealizedIsStrictNoOp(t *testing.T) {
	if !Idealized.IsIdealized() {
		t.Fatal("Idealized must report idealized")
	}
	if Idealized.StageLimit() != 0 || Idealized.Action(ir.ActRecirculate) != ir.ActRecirculate || Idealized.Exact() {
		t.Fatalf("Idealized has constraints: %+v", Idealized)
	}
	prog := storeProg(t, 5000)
	var nilModel *Model
	if nilModel.Lower(prog) != prog {
		t.Fatal("nil Lower must return its argument")
	}
	if Idealized.Lower(prog) != prog {
		t.Fatal("Idealized Lower must return its argument")
	}
}

func TestTofinoClamps(t *testing.T) {
	if Tofino.IsIdealized() {
		t.Fatal("Tofino must not report idealized")
	}
	stages := 0
	for i := 0; i < 12; i++ {
		if _, ok := Tofino.ChargeStage(&stages); !ok {
			t.Fatalf("stage %d refused within Tofino's budget of 12", i+1)
		}
	}
	if kind, ok := Tofino.ChargeStage(&stages); ok || kind != ir.ActDrop {
		t.Fatalf("13th stage = (%v, %v), want a drop", kind, ok)
	}

	low := Tofino.Lower(storeProg(t, 5000))
	if d, _ := low.HashTable("big"); d.Size != 512 {
		t.Fatalf("hash table of 2048 slots lowered to %d, want 512", d.Size)
	}
	if d, _ := low.HashTable("small"); d.Size != 64 {
		t.Fatalf("hash table of 64 slots lowered to %d, want passthrough 64", d.Size)
	}
	if d, _ := low.Bloom("seen"); d.Bits != 4096 || d.Hashes != 3 {
		t.Fatalf("Bloom filter lowered to %+v, want 4096 bits, 3 hashes", d)
	}
	if d, _ := low.Sketch("cms"); d.Cols != 1024 || d.Rows != 3 {
		t.Fatalf("sketch lowered to %+v, want 3x1024", d)
	}
	if d, _ := low.RegArray("ring"); d.Size != 300 {
		t.Fatalf("register array lowered to %d cells, want 300 (no array limit)", d.Size)
	}
	if tbl, _ := low.Table("ports"); len(tbl.Entries) != 1024 {
		t.Fatalf("table of 5000 entries lowered to %d, want 1024", len(tbl.Entries))
	}

	// Structure clamps never produce a degenerate zero-size store (Build
	// rejects such declarations; an unvalidated program may still hold
	// them)...
	zero := &ir.Program{
		Name:       "zero",
		RegArrays:  []ir.RegArrayDecl{{Name: "a", Size: 0}},
		HashTables: []ir.HashTableDecl{{Name: "h", Size: 0}},
		Blooms:     []ir.BloomDecl{{Name: "b", Bits: 0}},
		Sketches:   []ir.SketchDecl{{Name: "s", Rows: 1, Cols: 0}},
		Tables:     []ir.TableDecl{{Name: "empty"}},
	}
	lz := (&Model{MaxHashSlots: 4, MaxTableEntries: 2}).Lower(zero)
	if lz.RegArrays[0].Size != 1 || lz.HashTables[0].Size != 1 || lz.Blooms[0].Bits != 1 || lz.Sketches[0].Cols != 1 {
		t.Fatalf("lowering produced an empty store: %+v %+v %+v %+v",
			lz.RegArrays, lz.HashTables, lz.Blooms, lz.Sketches)
	}
	// ...but a table may legitimately hold no entries.
	if n := len(lz.Tables[0].Entries); n != 0 {
		t.Fatalf("empty table lowered to %d entries, want 0", n)
	}
}

// Lowering copies what it clamps: the input program keeps its declared
// sizes and entries, and the lowered program shares its CFG.
func TestLowerLeavesInputUntouched(t *testing.T) {
	prog := storeProg(t, 5000)
	arrays, hashes := slices.Clone(prog.RegArrays), slices.Clone(prog.HashTables)
	blooms, sketches := slices.Clone(prog.Blooms), slices.Clone(prog.Sketches)
	var entries []int
	for _, tbl := range prog.Tables {
		entries = append(entries, len(tbl.Entries))
	}

	low := Tofino.Lower(prog)
	if low == prog {
		t.Fatal("Tofino Lower must return a new program")
	}
	if !reflect.DeepEqual(prog.RegArrays, arrays) || !reflect.DeepEqual(prog.HashTables, hashes) ||
		!reflect.DeepEqual(prog.Blooms, blooms) || !reflect.DeepEqual(prog.Sketches, sketches) {
		t.Fatal("lowering modified the input's declarations")
	}
	for i, tbl := range prog.Tables {
		if len(tbl.Entries) != entries[i] {
			t.Fatalf("table %q: input now has %d entries, want %d", tbl.Name, len(tbl.Entries), entries[i])
		}
	}
	if !slices.Equal(low.Nodes(), prog.Nodes()) {
		t.Fatal("lowered program must share the input's CFG nodes")
	}
	if low.Root != prog.Root {
		t.Fatal("lowered program must share the input's statements")
	}
}

func TestEBPFSemantics(t *testing.T) {
	if got := EBPF.Action(ir.ActRecirculate); got != ir.ActToCPU {
		t.Fatalf("eBPF recirculation = %v, want a CPU punt", got)
	}
	if got := EBPF.Action(ir.ActForward); got != ir.ActForward {
		t.Fatalf("eBPF must keep other actions, got %v", got)
	}
	if !EBPF.Exact() {
		t.Fatal("eBPF model must be exact-state")
	}
	if EBPF.StageLimit() != 32 {
		t.Fatalf("eBPF path bound: %+v", EBPF)
	}
	stages := 32
	if kind, ok := EBPF.ChargeStage(&stages); ok || kind != ir.ActToCPU {
		t.Fatalf("33rd stage = (%v, %v), want a CPU punt", kind, ok)
	}
	low := EBPF.Lower(storeProg(t, 5000))
	if d, _ := low.HashTable("big"); d.Size != 2048 {
		t.Fatalf("eBPF model has no SRAM clamp, got %d slots", d.Size)
	}
	if tbl, _ := low.Table("ports"); len(tbl.Entries) != 5000 {
		t.Fatalf("eBPF model has no table limit, got %d entries", len(tbl.Entries))
	}
}

func TestLookup(t *testing.T) {
	for _, name := range []string{"", "idealized", "tofino", "ebpf"} {
		m, err := Lookup(name)
		if err != nil || m == nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
	}
	if m, _ := Lookup(""); m != Idealized {
		t.Fatal("empty name must resolve to Idealized")
	}
	_, err := Lookup("bmv2")
	if err == nil {
		t.Fatal("unknown target must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bmv2"`) || !strings.Contains(msg, "ebpf") ||
		!strings.Contains(msg, "idealized") || !strings.Contains(msg, "tofino") {
		t.Fatalf("error should name the unknown target and the registry: %q", msg)
	}
}

func TestNamesAndAll(t *testing.T) {
	names := Names()
	want := []string{"ebpf", "idealized", "tofino"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (sorted)", names, want)
		}
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d models", len(all))
	}
	for i, m := range all {
		if m.CanonicalName() != want[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, m.CanonicalName(), want[i])
		}
	}
}

func TestLimitsStrings(t *testing.T) {
	if s := Tofino.Limits(); !strings.Contains(s, "stages<=12(drop)") ||
		!strings.Contains(s, "hash<=512") {
		t.Fatalf("Tofino limits = %q", s)
	}
	if s := EBPF.Limits(); !strings.Contains(s, "stages<=32(punt)") ||
		!strings.Contains(s, "no-recirc") || !strings.Contains(s, "exact-state") {
		t.Fatalf("eBPF limits = %q", s)
	}
	if s := Idealized.Limits(); s != "none" {
		t.Fatalf("Idealized limits = %q", s)
	}
}
