package sym

import (
	"math/bits"
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

// layout is the slot geometry every path of one engine shares: the
// program's ir.Layout (the one dut compiles against) plus what the engine
// derives from it once.
type layout struct {
	*ir.Layout
	init   []Value // register slot -> initial value
	byName []int   // register slots in name order, StateKey's order
	words  int     // bitset words covering every CFG node
}

func newLayout(p *ir.Program) *layout {
	l := &layout{Layout: ir.NewLayout(p)}
	l.init = make([]Value, len(l.Regs))
	for _, r := range p.Regs {
		l.init[l.MustRegSlot(r.Name)] = ConcreteVal(r.Init)
	}
	l.byName = make([]int, len(l.Regs))
	for i := range l.byName {
		l.byName[i] = i
	}
	sort.Slice(l.byName, func(i, j int) bool { return l.Regs[l.byName[i]] < l.Regs[l.byName[j]] })
	l.words = (l.Nodes + 31) / 32
	return l
}

// Path is one symbolic execution path over the packet sequence so far.
//
// Registers, metadata and visits live in slices indexed by the engine's
// slot layout, so a fork copies a few slices rather than rehashing maps;
// code outside the package reads them through Reg, Visited, VisitedNodes
// and VisitCount. Stores and arrays are created on first access and stay
// nil maps until then.
type Path struct {
	lay *layout

	// Persistent program state: register values by slot, then materialized
	// register arrays / baseline structures by name.
	regs   []Value
	Arrays map[string][]Value

	// Greybox data-store states (P4wn mode).
	HashStores map[string]*greybox.HashStore
	Blooms     map[string]*greybox.BloomStore
	Sketches   map[string]*greybox.SketchStore

	// Per-packet scratch state, cleared each packet: metadata by slot. A
	// slot never written this packet holds the zero Value, ConcreteVal(0).
	// regs and meta share one backing array.
	meta []Value

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

	// visits is a bitset of the CFG nodes entered while processing the
	// current packet; allVisits counts node entries over the whole
	// sequence. Both are indexed by node ID and share one backing array.
	visits    []uint32
	allVisits []uint32

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

// newPath returns the initial empty-state path: declared registers hold
// their initial values, everything else is zero.
func newPath(l *layout) *Path {
	p := &Path{lay: l, Grey: prob.One(), Base: prob.One()}
	p.allocState()
	copy(p.regs, l.init)
	return p
}

// allocState gives the path zeroed slot storage: one array for register
// and metadata values, one for the visit bitset and counts.
func (p *Path) allocState() {
	nr, nm := len(p.lay.Regs), len(p.lay.Meta)
	vals := make([]Value, nr+nm)
	p.regs, p.meta = vals[:nr:nr], vals[nr:]
	nw := p.lay.words
	words := make([]uint32, nw+p.lay.Nodes)
	p.visits, p.allVisits = words[:nw:nw], words[nw:]
}

// Clone deep-copies the path for a fork.
func (p *Path) Clone() *Path {
	q := &Path{
		lay:         p.lay,
		Arrays:      cloneMap(p.Arrays, func(v []Value) []Value { return append([]Value(nil), v...) }),
		HashStores:  cloneMap(p.HashStores, (*greybox.HashStore).Clone),
		Blooms:      cloneMap(p.Blooms, (*greybox.BloomStore).Clone),
		Sketches:    cloneMap(p.Sketches, (*greybox.SketchStore).Clone),
		PC:          append([]solver.Constraint(nil), p.PC...),
		feasN:       p.feasN,
		Grey:        p.Grey,
		Base:        p.Base,
		Actions:     append([]ActionRecord(nil), p.Actions...),
		Havocs:      append([]HavocRecord(nil), p.Havocs...),
		GreyChoices: append([]GreyChoice(nil), p.GreyChoices...),
		BWrites:     cloneMap(p.BWrites, func(v []BaseWrite) []BaseWrite { return append([]BaseWrite(nil), v...) }),
		halted:      p.halted,
		Stages:      p.Stages,
	}
	q.allocState()
	copy(q.regs, p.regs)
	copy(q.meta, p.meta)
	copy(q.visits, p.visits)
	copy(q.allVisits, p.allVisits)
	return q
}

// cloneMap copies m with every value passed through cp; nil stays nil.
func cloneMap[V any](m map[string]V, cp func(V) V) map[string]V {
	if m == nil {
		return nil
	}
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = cp(v)
	}
	return out
}

// resetPacket clears per-packet scratch state before the next symbolic
// packet is processed.
func (p *Path) resetPacket() {
	clear(p.meta)
	clear(p.visits)
	p.halted = false
	p.Stages = 0
}

// visit records one entry into CFG node id.
func (p *Path) visit(id int) {
	p.visits[id>>5] |= 1 << (id & 31)
	p.allVisits[id]++
}

// Reg returns a register's current value; ok is false for a name the
// program never references.
func (p *Path) Reg(name string) (Value, bool) {
	i, ok := p.lay.RegSlot(name)
	if !ok {
		return Value{}, false
	}
	return p.regs[i], true
}

// Visited reports whether the current packet entered CFG node id.
func (p *Path) Visited(id int) bool {
	return id >= 0 && id < len(p.allVisits) && p.visits[id>>5]&(1<<(id&31)) != 0
}

// VisitCount returns how many times the path entered CFG node id over the
// whole packet sequence.
func (p *Path) VisitCount(id int) int {
	if id < 0 || id >= len(p.allVisits) {
		return 0
	}
	return int(p.allVisits[id])
}

// VisitedNodes returns the sorted node IDs visited in the current packet.
func (p *Path) VisitedNodes() []int {
	var out []int
	p.eachVisit(func(id int) { out = append(out, id) })
	return out
}

// eachVisit calls fn on every node ID visited in the current packet, in
// ascending order.
func (p *Path) eachVisit(fn func(id int)) {
	for w, word := range p.visits {
		for word != 0 {
			fn(w<<5 | bits.TrailingZeros32(word))
			word &= word - 1
		}
	}
}

// StateMergeable reports whether the path's persistent state is fully
// concrete (or distribution-valued), i.e. independent of past packet-field
// variables; only such paths may be coalesced.
func (p *Path) StateMergeable() bool {
	for _, v := range p.regs {
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
	for _, i := range p.lay.byName {
		b.WriteString("r" + p.lay.Regs[i] + "=" + p.regs[i].stateKey() + ";")
	}
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

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
