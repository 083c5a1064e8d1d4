// Package target defines pluggable device models for the symbolic engine
// and the concrete switch (P4Testgen-style: one symbolic core, many target
// backends). A Model captures everything that used to be hardcoded about
// the device — resource limits (table capacity, register/store sizes),
// stage/pipeline structure (how many stateful applies fit in one pass,
// whether recirculation exists), extern behavior (hash collision
// semantics), and drop/punt semantics — so the same program yields a
// different probability profile per target.
//
// The zero value of Model is the idealized device: no limits, exact
// recirculation, the paper's semantics. Every method is nil-receiver safe
// and treats a zero field as "unlimited", so threading a *Model through
// the engine is free for the idealized path: nil and target.Idealized
// behave bit-for-bit identically to the pre-target code.
//
// The rules live here and nowhere else. The symbolic engine, the concrete
// switch and the test generator ask the model: Lower gives the program as
// the device holds it (clamped stores, installed table entries),
// ChargeStage applies the per-pass stage budget, Action substitutes
// actions the device lacks, and Exact says whether keyed state is
// map-backed.
package target

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ir"
)

// Overflow says what happens to a packet whose pass exceeds the target's
// stage budget.
type Overflow int

const (
	// OverflowDrop drops the packet at the stage limit (Tofino-like: the
	// program simply does not fit and truncated passes are discarded).
	OverflowDrop Overflow = iota
	// OverflowPunt sends the packet to the CPU at the stage limit
	// (eBPF-like: the verifier bound trips and the kernel path takes over).
	OverflowPunt
)

func (o Overflow) String() string {
	if o == OverflowPunt {
		return "punt"
	}
	return "drop"
}

// Model is one device target. All limits use 0 for "unlimited"; the zero
// value is the idealized switch.
type Model struct {
	// Name is the registry key ("idealized", "tofino", "ebpf").
	Name string
	// Description is the one-line summary `p4wn targets` prints.
	Description string

	// MaxStages bounds how many stateful operations (hash/bloom/sketch
	// accesses, register array reads/writes, table applies) one packet
	// pass may execute; 0 is unlimited. A pass that would exceed it stops
	// and the packet takes the OnOverflow action.
	MaxStages int
	// OnOverflow is the fate of a packet that exceeds MaxStages.
	OnOverflow Overflow
	// NoRecirc disables recirculation: recirculate actions become CPU
	// punts (the packet leaves the fast path instead of looping).
	NoRecirc bool

	// MaxTableEntries caps match-action table capacity; entries past the
	// cap are not installed (lookups that would hit them take the miss
	// path). 0 is unlimited.
	MaxTableEntries int
	// MaxHashSlots caps hash-table register storage (slots per table).
	MaxHashSlots int
	// MaxBloomBits caps Bloom filter bit-array width.
	MaxBloomBits int
	// MaxSketchCols caps count-min sketch column count per row.
	MaxSketchCols int
	// MaxArrayCells caps plain register array length.
	MaxArrayCells int

	// ExactState models map-backed state (eBPF hash maps): keyed lookups
	// are exact, so the hash-collision arm disappears and its probability
	// mass folds into the empty arm.
	ExactState bool
}

// clamp bounds n by limit when a limit is set; n is always kept >= 1 so a
// clamped structure stays usable.
func clamp(n, limit int) int {
	if limit > 0 && n > limit {
		n = limit
	}
	if n < 1 {
		n = 1
	}
	return n
}

// StageLimit returns the stage budget, 0 when unlimited (or nil model).
func (m *Model) StageLimit() int {
	if m == nil {
		return 0
	}
	return m.MaxStages
}

// Exact reports whether keyed state is exact (no hash-collision arm).
func (m *Model) Exact() bool { return m != nil && m.ExactState }

// Lower returns the program as the device holds it: every register array,
// hash table, Bloom filter and sketch is clamped to the target's limits
// (never below one cell), and every match-action table keeps only the
// entries that fit its capacity, so lookups that would hit the rest take
// the miss path. Statements, CFG nodes, IDs and labels are shared with
// prog, which is never modified. Idealized models return prog itself.
func (m *Model) Lower(prog *ir.Program) *ir.Program {
	if m.IsIdealized() {
		return prog
	}
	low := *prog
	low.RegArrays = lowered(prog.RegArrays, func(d *ir.RegArrayDecl) { d.Size = clamp(d.Size, m.MaxArrayCells) })
	low.HashTables = lowered(prog.HashTables, func(d *ir.HashTableDecl) { d.Size = clamp(d.Size, m.MaxHashSlots) })
	low.Blooms = lowered(prog.Blooms, func(d *ir.BloomDecl) { d.Bits = clamp(d.Bits, m.MaxBloomBits) })
	low.Sketches = lowered(prog.Sketches, func(d *ir.SketchDecl) { d.Cols = clamp(d.Cols, m.MaxSketchCols) })
	low.Tables = lowered(prog.Tables, func(d *ir.TableDecl) {
		if n := m.MaxTableEntries; n > 0 && len(d.Entries) > n {
			d.Entries = d.Entries[:n:n]
		}
	})
	return &low
}

// lowered returns a copy of decls with f applied to each element.
func lowered[T any](decls []T, f func(*T)) []T {
	out := slices.Clone(decls)
	for i := range out {
		f(&out[i])
	}
	return out
}

// ChargeStage charges one pipeline stage for a stateful operation to a
// packet pass that has run *stages of them. It reports whether the
// operation runs. The operation that would exceed the budget does not:
// the rest of the pass halts and the packet takes the returned action
// (ActDrop or ActToCPU). Targets without a budget never advance *stages,
// so idealized runs are untouched.
func (m *Model) ChargeStage(stages *int) (ir.ActionKind, bool) {
	if m == nil || m.MaxStages <= 0 {
		return ir.ActNoOp, true
	}
	if *stages < m.MaxStages {
		*stages++
		return ir.ActNoOp, true
	}
	if m.OnOverflow == OverflowPunt {
		return ir.ActToCPU, false
	}
	return ir.ActDrop, false
}

// Action returns the action the device takes for a program action of kind
// k: without recirculation, the packet leaves the fast path as a CPU punt
// instead of looping through the pipeline.
func (m *Model) Action(k ir.ActionKind) ir.ActionKind {
	if k == ir.ActRecirculate && m != nil && m.NoRecirc {
		return ir.ActToCPU
	}
	return k
}

// IsIdealized reports whether the model imposes no constraints at all (nil
// or the zero-limits model): the engine's idealized fast path.
func (m *Model) IsIdealized() bool {
	return m == nil || (m.MaxStages == 0 && !m.NoRecirc && !m.ExactState &&
		m.MaxTableEntries == 0 && m.MaxHashSlots == 0 && m.MaxBloomBits == 0 &&
		m.MaxSketchCols == 0 && m.MaxArrayCells == 0)
}

// CanonicalName returns the registry name, "idealized" for nil/unnamed
// models (the spelling reports and store fingerprints use).
func (m *Model) CanonicalName() string {
	if m == nil || m.Name == "" {
		return "idealized"
	}
	return m.Name
}

// Limits renders the model's constraint set as a short human-readable
// string for `p4wn targets` ("none" for the idealized target).
func (m *Model) Limits() string {
	if m.IsIdealized() {
		return "none"
	}
	var parts []string
	if m.MaxStages > 0 {
		parts = append(parts, fmt.Sprintf("stages<=%d(%s)", m.MaxStages, m.OnOverflow))
	}
	if m.NoRecirc {
		parts = append(parts, "no-recirc")
	}
	if m.ExactState {
		parts = append(parts, "exact-state")
	}
	if m.MaxTableEntries > 0 {
		parts = append(parts, fmt.Sprintf("table<=%d", m.MaxTableEntries))
	}
	if m.MaxHashSlots > 0 {
		parts = append(parts, fmt.Sprintf("hash<=%d", m.MaxHashSlots))
	}
	if m.MaxBloomBits > 0 {
		parts = append(parts, fmt.Sprintf("bloom<=%db", m.MaxBloomBits))
	}
	if m.MaxSketchCols > 0 {
		parts = append(parts, fmt.Sprintf("sketch<=%dcol", m.MaxSketchCols))
	}
	if m.MaxArrayCells > 0 {
		parts = append(parts, fmt.Sprintf("array<=%d", m.MaxArrayCells))
	}
	return strings.Join(parts, " ")
}

// The registered targets.
var (
	// Idealized is the paper's device: unbounded resources, exact
	// recirculation, hash tables with real collision arms. Profiles under
	// it are bit-for-bit identical to a nil target.
	Idealized = &Model{
		Name:        "idealized",
		Description: "unbounded software switch (paper semantics; the default)",
	}

	// Tofino approximates a fixed-function RMT pipeline: a hard stage
	// budget (overlong passes are dropped), bounded SRAM/TCAM per
	// structure, and limited table capacity.
	Tofino = &Model{
		Name:            "tofino",
		Description:     "RMT-like pipeline: 12 stages (overflow drops), bounded SRAM per structure",
		MaxStages:       12,
		OnOverflow:      OverflowDrop,
		MaxTableEntries: 1024,
		MaxHashSlots:    512,
		MaxBloomBits:    4096,
		MaxSketchCols:   1024,
	}

	// EBPF approximates an XDP/eBPF datapath: no recirculation
	// (recirculate punts to the kernel), map-backed exact state (no hash
	// collision arm), and a verifier-style bound on stateful work per
	// pass (overflow punts).
	EBPF = &Model{
		Name:        "ebpf",
		Description: "XDP-like datapath: map-backed exact state, no recirculation, verifier path bound",
		MaxStages:   32,
		OnOverflow:  OverflowPunt,
		NoRecirc:    true,
		ExactState:  true,
	}
)

// registry maps names to models; "" is an alias for idealized so unset
// options mean "today's semantics".
var registry = map[string]*Model{
	"":          Idealized,
	"idealized": Idealized,
	"tofino":    Tofino,
	"ebpf":      EBPF,
}

// Lookup resolves a target name ("" means idealized). Unknown names error
// with the known set so CLI surfaces can print an actionable message.
func Lookup(name string) (*Model, error) {
	if m, ok := registry[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("unknown target %q (known: %s)", name, strings.Join(Names(), ", "))
}

// Names lists the registered target names, sorted.
func Names() []string {
	var out []string
	for n := range registry {
		if n != "" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// All returns the registered models in Names() order.
func All() []*Model {
	var out []*Model
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}
