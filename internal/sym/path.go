package sym

import (
	"sort"
	"strings"

	"repro/internal/greybox"
	"repro/internal/ir"
	"repro/internal/prob"
	"repro/internal/solver"
)

// ActionRecord logs one terminal action taken on a path.
type ActionRecord struct {
	Kind ir.ActionKind
	Port uint64 // concrete port when known, else PortUnknown
	Pkt  int    // packet index that triggered the action
}

// PortUnknown marks a symbolic output port.
const PortUnknown = ^uint64(0)

// GreyArm identifies which arm a greybox data-store access took.
type GreyArm int

// Greybox access arms.
const (
	ArmEmpty GreyArm = iota
	ArmHit
	ArmCollide
	ArmBloomHit
	ArmBloomMiss
	ArmSketchTrue
	ArmSketchFalse
)

func (a GreyArm) String() string {
	switch a {
	case ArmEmpty:
		return "empty"
	case ArmHit:
		return "hit"
	case ArmCollide:
		return "collide"
	case ArmBloomHit:
		return "bloom-hit"
	case ArmBloomMiss:
		return "bloom-miss"
	case ArmSketchTrue:
		return "sketch-true"
	case ArmSketchFalse:
		return "sketch-false"
	}
	return "?"
}

// GreyChoice records one greybox arm decision on a path; the test generator
// replays these decisions with concrete key material (same key for hits,
// fresh keys for empties, colliding keys for collisions).
type GreyChoice struct {
	Store string
	Arm   GreyArm
	Pkt   int
}

// HavocRecord remembers a havocked hash expression so the test generator
// can later reconcile the fresh variable with concrete key material (the
// paper's rainbow-table step).
type HavocRecord struct {
	Var  solver.Var
	Seed uint32
	Mod  uint64
	Args []Value
	Pkt  int
}

// Path is one symbolic execution path over the packet sequence so far.
type Path struct {
	// Persistent program state.
	Regs   map[string]Value
	Arrays map[string][]Value // materialized register arrays / baseline structures

	// Greybox data-store states (P4wn mode).
	HashStores map[string]*greybox.HashStore
	Blooms     map[string]*greybox.BloomStore
	Sketches   map[string]*greybox.SketchStore

	// Per-packet scratch state (reset each packet).
	Meta map[string]Value

	// PC holds the path constraints accumulated since the last merge.
	PC []solver.Constraint
	// feasN is the length of the PC prefix that solver.Build has found
	// feasible; the next feasibility check rebuilds only what connects to
	// PC[feasN:]. PC only grows between merges, so the prefix stays put.
	feasN int
	// Grey is the product of greybox fork probabilities since the last merge.
	Grey prob.P
	// Base is the folded probability of everything before the last merge.
	Base prob.P

	// Visits are CFG nodes entered while processing the current packet.
	Visits map[int]bool
	// AllVisits counts node entries over the whole sequence.
	AllVisits map[int]int

	Actions []ActionRecord
	Havocs  []HavocRecord
	// GreyChoices logs greybox arm decisions in execution order.
	GreyChoices []GreyChoice

	// BWrites tracks baseline-mode structure writes for slot aliasing.
	BWrites map[string][]BaseWrite

	// Dead marks a path that dropped its packet chain (used by drop
	// optimization: further packets still execute, but the current
	// packet's processing halted).
	halted bool

	// Stages counts stateful operations executed by the current packet's
	// pass. It is only advanced when the engine's target sets a stage
	// budget, so idealized runs never touch it (and merge keys are
	// unchanged).
	Stages int
}

// NewPath returns the initial empty-state path for a program.
func NewPath(p *ir.Program) *Path {
	pt := &Path{
		Regs:       map[string]Value{},
		Arrays:     map[string][]Value{},
		HashStores: map[string]*greybox.HashStore{},
		Blooms:     map[string]*greybox.BloomStore{},
		Sketches:   map[string]*greybox.SketchStore{},
		Meta:       map[string]Value{},
		Grey:       prob.One(),
		Base:       prob.One(),
		Visits:     map[int]bool{},
		AllVisits:  map[int]int{},
	}
	for _, r := range p.Regs {
		pt.Regs[r.Name] = ConcreteVal(r.Init)
	}
	return pt
}

// Clone deep-copies the path for a fork.
func (p *Path) Clone() *Path {
	q := &Path{
		Regs:        make(map[string]Value, len(p.Regs)),
		Arrays:      make(map[string][]Value, len(p.Arrays)),
		HashStores:  make(map[string]*greybox.HashStore, len(p.HashStores)),
		Blooms:      make(map[string]*greybox.BloomStore, len(p.Blooms)),
		Sketches:    make(map[string]*greybox.SketchStore, len(p.Sketches)),
		Meta:        make(map[string]Value, len(p.Meta)),
		PC:          append([]solver.Constraint(nil), p.PC...),
		feasN:       p.feasN,
		Grey:        p.Grey,
		Base:        p.Base,
		Visits:      make(map[int]bool, len(p.Visits)),
		AllVisits:   make(map[int]int, len(p.AllVisits)),
		Actions:     append([]ActionRecord(nil), p.Actions...),
		Havocs:      append([]HavocRecord(nil), p.Havocs...),
		GreyChoices: append([]GreyChoice(nil), p.GreyChoices...),
		halted:      p.halted,
		Stages:      p.Stages,
	}
	for k, v := range p.Regs {
		q.Regs[k] = v
	}
	for k, v := range p.Arrays {
		q.Arrays[k] = append([]Value(nil), v...)
	}
	for k, v := range p.HashStores {
		q.HashStores[k] = v.Clone()
	}
	for k, v := range p.Blooms {
		q.Blooms[k] = v.Clone()
	}
	for k, v := range p.Sketches {
		q.Sketches[k] = v.Clone()
	}
	for k, v := range p.Meta {
		q.Meta[k] = v
	}
	for k, v := range p.Visits {
		q.Visits[k] = v
	}
	for k, v := range p.AllVisits {
		q.AllVisits[k] = v
	}
	if p.BWrites != nil {
		q.BWrites = make(map[string][]BaseWrite, len(p.BWrites))
		for k, v := range p.BWrites {
			q.BWrites[k] = append([]BaseWrite(nil), v...)
		}
	}
	return q
}

// resetPacket clears per-packet scratch state before the next symbolic
// packet is processed.
func (p *Path) resetPacket() {
	p.Meta = map[string]Value{}
	p.Visits = map[int]bool{}
	p.halted = false
	p.Stages = 0
}

// StateMergeable reports whether the path's persistent state is fully
// concrete (or distribution-valued), i.e. independent of past packet-field
// variables; only such paths may be coalesced.
func (p *Path) StateMergeable() bool {
	for _, v := range p.Regs {
		if !v.mergeable() {
			return false
		}
	}
	for _, arr := range p.Arrays {
		for _, v := range arr {
			if !v.mergeable() {
				return false
			}
		}
	}
	return true
}

// StateKey canonically fingerprints the persistent state for merging.
func (p *Path) StateKey() string {
	var b strings.Builder
	writeSortedVals(&b, "r", p.Regs)
	names := sortedKeys(p.Arrays)
	for _, n := range names {
		b.WriteString("a" + n + "[")
		for _, v := range p.Arrays[n] {
			b.WriteString(v.stateKey())
			b.WriteByte(',')
		}
		b.WriteString("]")
	}
	for _, n := range sortedKeys(p.HashStores) {
		b.WriteString(p.HashStores[n].Key())
	}
	for _, n := range sortedKeys(p.Blooms) {
		b.WriteString(p.Blooms[n].Key())
	}
	for _, n := range sortedKeys(p.Sketches) {
		b.WriteString(p.Sketches[n].Key())
	}
	return b.String()
}

func writeSortedVals(b *strings.Builder, tag string, m map[string]Value) {
	for _, k := range sortedKeys(m) {
		b.WriteString(tag + k + "=" + m[k].stateKey() + ";")
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// VisitedNodes returns the sorted node IDs visited in the current packet.
func (p *Path) VisitedNodes() []int {
	out := make([]int, 0, len(p.Visits))
	for id := range p.Visits {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
