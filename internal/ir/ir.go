// Package ir defines the intermediate representation for P4-like data-plane
// programs. It mirrors the representation P4wn analyzes: a packet-processing
// body (executed once per packet) over header fields, scalar registers,
// register arrays, match/action tables, and approximate data structures
// (CRC hash tables, Bloom filters, count-min sketches).
//
// Programs are built with the builder helpers in builder.go, then finalized
// with Build, which assigns CFG node IDs to every basic block and validates
// all references.
package ir

import "fmt"

// Field describes one packet header field with its bit width.
type Field struct {
	Name string
	Bits int
}

// MaxFieldBits is the widest packet field Build accepts. The model counter
// folds x−y windows into ±MaxInt64/4, which holds every difference of two
// 61-bit values; wider fields would come back with wrong probabilities.
const MaxFieldBits = 61

// Max returns the largest value representable in the field.
func (f Field) Max() uint64 {
	if f.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(f.Bits)) - 1
}

// Size returns the number of distinct values of the field.
func (f Field) Size() float64 {
	return float64(f.Max()) + 1
}

// StdFields is the default header vocabulary shared by the program zoo.
// Programs may declare additional fields.
var StdFields = []Field{
	{"proto", 8},
	{"src_ip", 32},
	{"dst_ip", 32},
	{"src_port", 16},
	{"dst_port", 16},
	{"tcp_flags", 8},
	{"seq", 32},
	{"ack", 32},
	{"ttl", 8},
	{"pkt_len", 16},
	{"ipd", 16},
}

// Well-known protocol numbers and TCP flag bits used across the program zoo.
const (
	ProtoTCP = 6
	ProtoUDP = 17

	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
)

// BinOp enumerates binary arithmetic/bitwise operators.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpMod
	OpShl
	OpShr
)

func (o BinOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpXor:
		return "^"
	case OpMod:
		return "%"
	case OpShl:
		return "<<"
	case OpShr:
		return ">>"
	}
	return "?"
}

// Eval is the concrete meaning of the operator, the one every concrete
// evaluator follows: uint64 arithmetic wraps around, x % 0 is 0, and a
// shift count is taken mod 64. Out-of-range operators yield 0.
func (o BinOp) Eval(a, b uint64) uint64 {
	switch o {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpMod:
		if b == 0 {
			return 0
		}
		return a % b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	}
	return 0
}

// CmpOp enumerates comparison operators.
type CmpOp int

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Negate returns the comparison operator for the negated comparison.
func (o CmpOp) Negate() CmpOp {
	switch o {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	}
	// Out-of-range operators (from hand-built or fuzzed IR) negate to
	// themselves; the analysis verifier reports them as malformed rather
	// than crashing the profiler mid-run.
	return o
}

// Valid reports whether the operator is one of the defined comparisons.
func (o CmpOp) Valid() bool { return o >= CmpEq && o <= CmpGe }

// Swap returns the operator for the comparison with its operands
// exchanged: a o b == b o.Swap() a. Eq, Ne and out-of-range operators
// swap to themselves.
func (o CmpOp) Swap() CmpOp {
	switch o {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return o
}

// Eval is the concrete meaning of a comparison: unsigned, over uint64.
// Out-of-range operators are false.
func (o CmpOp) Eval(a, b uint64) bool {
	switch o {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	}
	return false
}

// Expr is a packet-processing expression. Expressions reference the current
// packet's header fields, scalar registers, and per-packet metadata.
type Expr interface {
	exprNode()
	String() string
}

// Const is an unsigned integer literal.
type Const struct{ V uint64 }

// FieldRef reads a header field of the packet being processed.
type FieldRef struct{ Name string }

// RegRef reads a scalar register.
type RegRef struct{ Reg string }

// MetaRef reads per-packet metadata previously written by Assign.
type MetaRef struct{ Name string }

// Bin applies a binary operator to two sub-expressions.
type Bin struct {
	Op   BinOp
	A, B Expr
}

// HashExpr computes a CRC-style hash of the argument expressions, reduced
// modulo Mod (Mod == 0 means no reduction). Symbolic engines havoc it;
// concrete interpreters evaluate crc32 over the argument values.
type HashExpr struct {
	Seed uint32
	Args []Expr
	Mod  uint64
}

func (Const) exprNode()    {}
func (FieldRef) exprNode() {}
func (RegRef) exprNode()   {}
func (MetaRef) exprNode()  {}
func (Bin) exprNode()      {}
func (HashExpr) exprNode() {}

func (e Const) String() string    { return fmt.Sprintf("%d", e.V) }
func (e FieldRef) String() string { return "pkt." + e.Name }
func (e RegRef) String() string   { return "reg." + e.Reg }
func (e MetaRef) String() string  { return "meta." + e.Name }
func (e Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.A.String(), e.Op, e.B.String())
}
func (e HashExpr) String() string {
	s := fmt.Sprintf("hash%d(", e.Seed)
	for i, a := range e.Args {
		if i > 0 {
			s += ","
		}
		s += a.String()
	}
	s += ")"
	if e.Mod != 0 {
		s += fmt.Sprintf("%%%d", e.Mod)
	}
	return s
}

// Cond is a boolean branch condition.
type Cond interface {
	condNode()
	String() string
}

// Cmp compares two expressions.
type Cmp struct {
	Op   CmpOp
	A, B Expr
}

// Not negates a condition.
type Not struct{ C Cond }

// AndC is conjunction.
type AndC struct{ A, B Cond }

// OrC is disjunction.
type OrC struct{ A, B Cond }

func (Cmp) condNode()  {}
func (Not) condNode()  {}
func (AndC) condNode() {}
func (OrC) condNode()  {}

func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.A.String(), c.Op, c.B.String())
}
func (c Not) String() string  { return "!(" + c.C.String() + ")" }
func (c AndC) String() string { return "(" + c.A.String() + " && " + c.B.String() + ")" }
func (c OrC) String() string  { return "(" + c.A.String() + " || " + c.B.String() + ")" }

// ActionKind enumerates terminal packet actions.
type ActionKind int

const (
	ActNoOp ActionKind = iota
	ActForward
	ActDrop
	ActToCPU       // punt to switch control plane
	ActDigest      // generate a control-plane digest message
	ActRecirculate // send through the recirculation pipeline
	ActMirror      // mirror to a port (e.g. sampling to a collector)
	ActToBackend   // forward to a backend server port
)

func (k ActionKind) String() string {
	switch k {
	case ActNoOp:
		return "noop"
	case ActForward:
		return "forward"
	case ActDrop:
		return "drop"
	case ActToCPU:
		return "to_cpu"
	case ActDigest:
		return "digest"
	case ActRecirculate:
		return "recirculate"
	case ActMirror:
		return "mirror"
	case ActToBackend:
		return "to_backend"
	}
	return "?"
}

// Expensive reports whether the action is costly at runtime (involves the
// control plane, recirculation, or a backend server). Figure 12 colors code
// blocks containing expensive actions.
func (k ActionKind) Expensive() bool {
	switch k {
	case ActToCPU, ActDigest, ActRecirculate, ActMirror, ActToBackend:
		return true
	}
	return false
}

// LValue is an assignment target.
type LValue interface {
	lvNode()
	String() string
}

// RegLV targets a scalar register.
type RegLV struct{ Reg string }

// MetaLV targets per-packet metadata.
type MetaLV struct{ Name string }

func (RegLV) lvNode()  {}
func (MetaLV) lvNode() {}

func (l RegLV) String() string  { return "reg." + l.Reg }
func (l MetaLV) String() string { return "meta." + l.Name }

// Stmt is a program statement.
type Stmt interface{ stmtNode() }

// Block is a labeled basic block; it becomes one CFG node. Unlabeled branch
// arms are auto-wrapped into Blocks by Build.
type Block struct {
	Label string
	Stmts []Stmt

	// ID is the CFG node index, assigned by Build.
	ID int
}

// If branches on a condition.
type If struct {
	Cond       Cond
	Then, Else Stmt // Else may be nil
}

// Assign writes an expression to a register or metadata slot.
type Assign struct {
	Target LValue
	Expr   Expr
}

// Action performs a terminal packet action. Arg is the port for
// Forward/Mirror/ToBackend (may be nil otherwise).
type Action struct {
	Kind ActionKind
	Arg  Expr
}

// HashAccess reads (and optionally writes) a CRC hash table keyed by Key.
// Per the paper's greybox model it has a three-way continuation:
// the slot is empty, the slot holds the same key (hit), or the slot holds a
// different key (collision). Any of the arms may be nil.
//
// If Write is true the access installs Value under Key (on empty or hit;
// a collision leaves the table unchanged unless Evict is set, which
// overwrites the colliding entry — the *Flow-style eviction behaviour).
type HashAccess struct {
	Store     string
	Key       []Expr
	Write     bool
	Value     Expr // value to install when Write (nil means 0)
	Evict     bool
	Inc       bool // when set with Write, add Value to the stored value on hit
	Dest      string
	OnEmpty   Stmt
	OnHit     Stmt
	OnCollide Stmt
}

// BloomOp tests Key against a Bloom filter and optionally inserts it.
type BloomOp struct {
	Filter string
	Key    []Expr
	Insert bool
	OnHit  Stmt
	OnMiss Stmt
}

// SketchUpdate adds Inc to Key's counters in a count-min sketch. When Dest
// is set, the key's new count-min estimate is stored into that metadata
// slot (as a value distribution under greybox analysis).
type SketchUpdate struct {
	Sketch string
	Key    []Expr
	Inc    Expr
	Dest   string
}

// SketchBranch branches on the count-min estimate of Key compared with a
// constant threshold.
type SketchBranch struct {
	Sketch    string
	Key       []Expr
	Op        CmpOp
	Threshold uint64
	OnTrue    Stmt
	OnFalse   Stmt
}

// ArrayRead loads Array[Index] into metadata Dest.
type ArrayRead struct {
	Array string
	Index Expr
	Dest  string
}

// ArrayWrite stores Value into Array[Index].
type ArrayWrite struct {
	Array string
	Index Expr
	Value Expr
}

// TableApply matches Keys against the named match/action table.
// One path per entry (plus the default) is explored symbolically.
type TableApply struct {
	Table string
}

func (*Block) stmtNode()        {}
func (*If) stmtNode()           {}
func (*Assign) stmtNode()       {}
func (*Action) stmtNode()       {}
func (*HashAccess) stmtNode()   {}
func (*BloomOp) stmtNode()      {}
func (*SketchUpdate) stmtNode() {}
func (*SketchBranch) stmtNode() {}
func (*ArrayRead) stmtNode()    {}
func (*ArrayWrite) stmtNode()   {}
func (*TableApply) stmtNode()   {}

// RegDecl declares a scalar register.
type RegDecl struct {
	Name string
	Bits int
	Init uint64
}

// RegArrayDecl declares a plain register array (concrete indexing).
type RegArrayDecl struct {
	Name string
	Size int
	Bits int
}

// HashTableDecl declares a CRC hash table with Size slots.
type HashTableDecl struct {
	Name string
	Size int
	Seed uint32
}

// BloomDecl declares a Bloom filter with Bits bits and Hashes hash functions.
type BloomDecl struct {
	Name   string
	Bits   int
	Hashes int
}

// SketchDecl declares a count-min sketch with Rows x Cols counters.
type SketchDecl struct {
	Name string
	Rows int
	Cols int
}

// MatchKind selects how a table entry key matches.
type MatchKind int

const (
	MatchExact MatchKind = iota
	MatchRange
	MatchWildcard
)

// MatchSpec matches one table key field.
type MatchSpec struct {
	Kind   MatchKind
	Lo, Hi uint64 // Exact uses Lo; Range uses [Lo,Hi]
}

// EntryMatches reports whether a table entry's specs accept a key tuple,
// spec i testing key[i]: exact equals Lo, range lies in [Lo, Hi], and a
// wildcard or an unknown kind accepts any value.
func EntryMatches(specs []MatchSpec, key []uint64) bool {
	for i, sp := range specs {
		switch sp.Kind {
		case MatchExact:
			if key[i] != sp.Lo {
				return false
			}
		case MatchRange:
			if key[i] < sp.Lo || key[i] > sp.Hi {
				return false
			}
		}
	}
	return true
}

// Entry is one match/action table entry.
type Entry struct {
	Match  []MatchSpec
	Action Stmt
}

// TableDecl declares a match/action table. Entries are concrete (the
// paper's prototype assumes entries are known); SymbolicEntries > 0
// additionally models that many *unknown* installed entries, each matching
// an unconstrained key value — the Vera-style symbolic-entry extension the
// paper's §6 proposes. Symbolic entries execute SymbolicAction when
// matched; concretely (on the DUT) they do not exist until a controller
// installs them, so the interpreter skips them. Entries are assumed
// disjoint when Disjoint is true, which avoids negated-match constraints
// during symbex.
type TableDecl struct {
	Name     string
	Keys     []Expr
	Entries  []Entry
	Default  Stmt
	Disjoint bool

	SymbolicEntries int
	SymbolicAction  Stmt
}

// Program is a finalized data-plane program.
type Program struct {
	Name string

	Fields     []Field
	Regs       []RegDecl
	RegArrays  []RegArrayDecl
	HashTables []HashTableDecl
	Blooms     []BloomDecl
	Sketches   []SketchDecl
	Tables     []TableDecl

	// Root is the per-packet processing body.
	Root Stmt

	// Policy is the optional information-flow policy (secret sources and
	// public sinks) consumed by the analysis package's ifc pass. Nil means
	// no policy: the ifc pass is skipped. Pure metadata — execution,
	// profiling, and model counting ignore it.
	Policy *SecPolicy

	// Assigned by Build.
	nodes       []*Block
	fieldByName map[string]Field
	regByName   map[string]RegDecl
	built       bool
}

// Nodes returns all CFG nodes (labeled basic blocks) in ID order.
func (p *Program) Nodes() []*Block {
	return p.nodes
}

// Node returns the CFG node with the given ID.
func (p *Program) Node(id int) *Block {
	return p.nodes[id]
}

// NodeByLabel returns the first CFG node with the given label, or nil.
func (p *Program) NodeByLabel(label string) *Block {
	for _, n := range p.nodes {
		if n.Label == label {
			return n
		}
	}
	return nil
}

// Field returns the declaration of a header field.
func (p *Program) Field(name string) (Field, bool) {
	f, ok := p.fieldByName[name]
	return f, ok
}

// Reg returns the declaration of a scalar register.
func (p *Program) Reg(name string) (RegDecl, bool) {
	r, ok := p.regByName[name]
	return r, ok
}

// Table returns the declaration of a match/action table.
func (p *Program) Table(name string) (*TableDecl, bool) {
	for i := range p.Tables {
		if p.Tables[i].Name == name {
			return &p.Tables[i], true
		}
	}
	return nil, false
}

// HashTable returns a hash table declaration by name.
func (p *Program) HashTable(name string) (HashTableDecl, bool) {
	for _, d := range p.HashTables {
		if d.Name == name {
			return d, true
		}
	}
	return HashTableDecl{}, false
}

// Bloom returns a Bloom filter declaration by name.
func (p *Program) Bloom(name string) (BloomDecl, bool) {
	for _, d := range p.Blooms {
		if d.Name == name {
			return d, true
		}
	}
	return BloomDecl{}, false
}

// Sketch returns a sketch declaration by name.
func (p *Program) Sketch(name string) (SketchDecl, bool) {
	for _, d := range p.Sketches {
		if d.Name == name {
			return d, true
		}
	}
	return SketchDecl{}, false
}

// RegArray returns a register array declaration by name.
func (p *Program) RegArray(name string) (RegArrayDecl, bool) {
	for _, d := range p.RegArrays {
		if d.Name == name {
			return d, true
		}
	}
	return RegArrayDecl{}, false
}

// Stateful reports whether the program has any persistent state.
func (p *Program) Stateful() bool {
	return len(p.Regs) > 0 || len(p.RegArrays) > 0 || len(p.HashTables) > 0 ||
		len(p.Blooms) > 0 || len(p.Sketches) > 0
}

// HasApprox reports whether the program uses approximate data structures.
func (p *Program) HasApprox() bool {
	return len(p.HashTables) > 0 || len(p.Blooms) > 0 || len(p.Sketches) > 0
}
