package ir

import (
	"fmt"
	"sort"
)

// Build finalizes a program: it wraps every branch arm into a labeled Block,
// assigns CFG node IDs, fills lookup maps, and validates all references.
// Build must be called exactly once before the program is executed or
// analyzed; it returns the program to allow chaining.
func (p *Program) Build() (*Program, error) {
	return p.build(true)
}

// BuildUnvalidated finalizes a program without reference validation: blocks
// are labeled and numbered and lookup maps are filled, but unknown fields,
// registers, tables, or out-of-range operators are tolerated. It exists so
// the analysis verifier can walk a malformed program and report every
// problem as a structured diagnostic instead of stopping at Build's first
// error. Programs built this way must not be executed.
func (p *Program) BuildUnvalidated() (*Program, error) {
	return p.build(false)
}

func (p *Program) build(validated bool) (*Program, error) {
	if p.built {
		return p, fmt.Errorf("ir: program %q already built", p.Name)
	}
	if p.Root == nil {
		return nil, fmt.Errorf("ir: program %q has no root", p.Name)
	}
	if len(p.Fields) == 0 {
		p.Fields = append([]Field(nil), StdFields...)
	}
	p.fieldByName = make(map[string]Field, len(p.Fields))
	for _, f := range p.Fields {
		if validated {
			if f.Bits <= 0 || f.Bits > MaxFieldBits {
				return nil, fmt.Errorf("ir: field %q has invalid width %d (fields are 1..%d bits)", f.Name, f.Bits, MaxFieldBits)
			}
			if _, dup := p.fieldByName[f.Name]; dup {
				return nil, fmt.Errorf("ir: duplicate field %q", f.Name)
			}
		}
		p.fieldByName[f.Name] = f
	}
	p.regByName = make(map[string]RegDecl, len(p.Regs))
	for _, r := range p.Regs {
		if validated {
			if r.Bits <= 0 || r.Bits > 64 {
				return nil, fmt.Errorf("ir: register %q has invalid width %d", r.Name, r.Bits)
			}
			if _, dup := p.regByName[r.Name]; dup {
				return nil, fmt.Errorf("ir: duplicate register %q", r.Name)
			}
		}
		p.regByName[r.Name] = r
	}

	// Normalize: ensure the root and every branch arm is a *Block.
	p.Root = p.normalize(p.Root, "entry")
	n := &nodeAssigner{p: p}
	n.assign(p.Root)
	// Table actions live outside Root; normalize and number them too.
	for ti := range p.Tables {
		t := &p.Tables[ti]
		for ei := range t.Entries {
			if t.Entries[ei].Action != nil {
				t.Entries[ei].Action = p.normalize(t.Entries[ei].Action,
					fmt.Sprintf("%s.entry%d", t.Name, ei))
				n.assign(t.Entries[ei].Action)
			}
		}
		if t.Default != nil {
			t.Default = p.normalize(t.Default, t.Name+".default")
			n.assign(t.Default)
		}
		if t.SymbolicAction != nil {
			t.SymbolicAction = p.normalize(t.SymbolicAction, t.Name+".symbolic")
			n.assign(t.SymbolicAction)
		}
	}
	if n.err != nil {
		return nil, n.err
	}
	p.built = true
	if validated {
		if err := p.validate(); err != nil {
			p.built = false
			return nil, err
		}
	}
	return p, nil
}

// MustBuild is Build that panics on error; used by the static program zoo.
func (p *Program) MustBuild() *Program {
	q, err := p.Build()
	if err != nil {
		panic(err)
	}
	return q
}

// normalize wraps a non-Block statement into a Block with the given label.
func (p *Program) normalize(s Stmt, label string) *Block {
	if b, ok := s.(*Block); ok {
		if b.Label == "" {
			b.Label = label
		}
		return b
	}
	return &Block{Label: label, Stmts: []Stmt{s}}
}

type nodeAssigner struct {
	p   *Program
	err error
}

// assign walks the statement tree, wrapping branch arms into Blocks and
// assigning sequential node IDs in pre-order.
func (n *nodeAssigner) assign(s Stmt) {
	if n.err != nil || s == nil {
		return
	}
	switch t := s.(type) {
	case *Block:
		t.ID = len(n.p.nodes)
		n.p.nodes = append(n.p.nodes, t)
		for _, c := range t.Stmts {
			n.assign(c)
		}
	case *If:
		t.Then = n.wrapBranch(t.Then, "then")
		n.assign(t.Then)
		if t.Else != nil {
			t.Else = n.wrapBranch(t.Else, "else")
			n.assign(t.Else)
		}
	case *HashAccess:
		if t.OnEmpty != nil {
			t.OnEmpty = n.wrapBranch(t.OnEmpty, t.Store+".empty")
			n.assign(t.OnEmpty)
		}
		if t.OnHit != nil {
			t.OnHit = n.wrapBranch(t.OnHit, t.Store+".hit")
			n.assign(t.OnHit)
		}
		if t.OnCollide != nil {
			t.OnCollide = n.wrapBranch(t.OnCollide, t.Store+".collide")
			n.assign(t.OnCollide)
		}
	case *BloomOp:
		if t.OnHit != nil {
			t.OnHit = n.wrapBranch(t.OnHit, t.Filter+".hit")
			n.assign(t.OnHit)
		}
		if t.OnMiss != nil {
			t.OnMiss = n.wrapBranch(t.OnMiss, t.Filter+".miss")
			n.assign(t.OnMiss)
		}
	case *SketchBranch:
		if t.OnTrue != nil {
			t.OnTrue = n.wrapBranch(t.OnTrue, t.Sketch+".true")
			n.assign(t.OnTrue)
		}
		if t.OnFalse != nil {
			t.OnFalse = n.wrapBranch(t.OnFalse, t.Sketch+".false")
			n.assign(t.OnFalse)
		}
	case *Assign, *Action, *SketchUpdate, *ArrayRead, *ArrayWrite, *TableApply:
		// Leaves.
	default:
		n.err = fmt.Errorf("ir: unknown statement type %T", s)
	}
}

func (n *nodeAssigner) wrapBranch(s Stmt, hint string) *Block {
	if b, ok := s.(*Block); ok {
		if b.Label == "" {
			b.Label = hint
		}
		return b
	}
	return &Block{Label: hint, Stmts: []Stmt{s}}
}

// validate checks every field, register and structure reference, in the
// packet body and in table actions alike.
func (p *Program) validate() error {
	// Every store needs a cell: indices and hashes reduce modulo its size.
	// A Bloom filter also needs a hash function and a sketch a row, or
	// every key would test as a member and every estimate would be empty.
	var serr error
	for _, d := range p.RegArrays {
		serr = firstErr(serr, p.checkSize("register array", d.Name, "size", d.Size))
	}
	for _, d := range p.HashTables {
		serr = firstErr(serr, p.checkSize("hash table", d.Name, "size", d.Size))
	}
	for _, d := range p.Blooms {
		serr = firstErr(serr, p.checkSize("bloom filter", d.Name, "size", d.Bits),
			p.checkSize("bloom filter", d.Name, "hashes", d.Hashes))
	}
	for _, d := range p.Sketches {
		serr = firstErr(serr, p.checkSize("sketch", d.Name, "rows", d.Rows),
			p.checkSize("sketch", d.Name, "size", d.Cols))
	}
	if serr != nil {
		return serr
	}
	// Duplicate labels are allowed (auto-generated arms); node IDs stay
	// unique.
	var werr error
	p.Walk(func(s Stmt) {
		if werr != nil {
			return
		}
		switch t := s.(type) {
		case *Assign:
			werr = firstErr(werr, p.checkLV(t.Target), p.checkExpr(t.Expr))
		case *If:
			werr = firstErr(werr, p.checkCond(t.Cond))
		case *Action:
			if t.Arg != nil {
				werr = firstErr(werr, p.checkExpr(t.Arg))
			}
		case *HashAccess:
			if _, ok := p.HashTable(t.Store); !ok {
				werr = fmt.Errorf("ir: %s: unknown hash table %q", p.Name, t.Store)
				return
			}
			for _, k := range t.Key {
				werr = firstErr(werr, p.checkExpr(k))
			}
			if t.Value != nil {
				werr = firstErr(werr, p.checkExpr(t.Value))
			}
		case *BloomOp:
			if _, ok := p.Bloom(t.Filter); !ok {
				werr = fmt.Errorf("ir: %s: unknown bloom filter %q", p.Name, t.Filter)
				return
			}
			for _, k := range t.Key {
				werr = firstErr(werr, p.checkExpr(k))
			}
		case *SketchUpdate:
			if _, ok := p.Sketch(t.Sketch); !ok {
				werr = fmt.Errorf("ir: %s: unknown sketch %q", p.Name, t.Sketch)
				return
			}
			for _, k := range t.Key {
				werr = firstErr(werr, p.checkExpr(k))
			}
			if t.Inc != nil {
				werr = firstErr(werr, p.checkExpr(t.Inc))
			}
		case *SketchBranch:
			if _, ok := p.Sketch(t.Sketch); !ok {
				werr = fmt.Errorf("ir: %s: unknown sketch %q", p.Name, t.Sketch)
				return
			}
			for _, k := range t.Key {
				werr = firstErr(werr, p.checkExpr(k))
			}
		case *ArrayRead:
			if _, ok := p.RegArray(t.Array); !ok {
				werr = fmt.Errorf("ir: %s: unknown register array %q", p.Name, t.Array)
				return
			}
			werr = firstErr(werr, p.checkExpr(t.Index))
		case *ArrayWrite:
			if _, ok := p.RegArray(t.Array); !ok {
				werr = fmt.Errorf("ir: %s: unknown register array %q", p.Name, t.Array)
				return
			}
			werr = firstErr(werr, p.checkExpr(t.Index), p.checkExpr(t.Value))
		case *TableApply:
			if _, ok := p.Table(t.Table); !ok {
				werr = fmt.Errorf("ir: %s: unknown table %q", p.Name, t.Table)
			}
		}
	})
	if werr != nil {
		return werr
	}
	for _, t := range p.Tables {
		for _, k := range t.Keys {
			if err := p.checkExpr(k); err != nil {
				return err
			}
		}
		for i, e := range t.Entries {
			if len(e.Match) != len(t.Keys) {
				return fmt.Errorf("ir: %s: table %q entry %d has %d match specs for %d keys",
					p.Name, t.Name, i, len(e.Match), len(t.Keys))
			}
		}
	}
	return nil
}

func (p *Program) checkSize(kind, name, what string, n int) error {
	if n < 1 {
		return fmt.Errorf("ir: %s: %s %q has %s %d (must be at least 1)", p.Name, kind, name, what, n)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func (p *Program) checkLV(l LValue) error {
	switch t := l.(type) {
	case RegLV:
		if _, ok := p.regByName[t.Reg]; !ok {
			return fmt.Errorf("ir: %s: unknown register %q", p.Name, t.Reg)
		}
	case MetaLV:
		// Metadata is declared implicitly by first write.
	}
	return nil
}

func (p *Program) checkExpr(e Expr) error {
	switch t := e.(type) {
	case Const, MetaRef:
		return nil
	case FieldRef:
		if _, ok := p.fieldByName[t.Name]; !ok {
			return fmt.Errorf("ir: %s: unknown field %q", p.Name, t.Name)
		}
	case RegRef:
		if _, ok := p.regByName[t.Reg]; !ok {
			return fmt.Errorf("ir: %s: unknown register %q", p.Name, t.Reg)
		}
	case Bin:
		return firstErr(p.checkExpr(t.A), p.checkExpr(t.B))
	case HashExpr:
		for _, a := range t.Args {
			if err := p.checkExpr(a); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) checkCond(c Cond) error {
	switch t := c.(type) {
	case Cmp:
		return firstErr(p.checkExpr(t.A), p.checkExpr(t.B))
	case Not:
		return p.checkCond(t.C)
	case AndC:
		return firstErr(p.checkCond(t.A), p.checkCond(t.B))
	case OrC:
		return firstErr(p.checkCond(t.A), p.checkCond(t.B))
	}
	return nil
}

// walkStmt calls fn on s and every statement nested beneath it; it does not
// follow TableApply into table actions (Program.Walk visits those).
func walkStmt(s Stmt, fn func(Stmt)) {
	if s == nil {
		return
	}
	fn(s)
	switch t := s.(type) {
	case *Block:
		for _, c := range t.Stmts {
			walkStmt(c, fn)
		}
	case *If:
		walkStmt(t.Then, fn)
		walkStmt(t.Else, fn)
	case *HashAccess:
		walkStmt(t.OnEmpty, fn)
		walkStmt(t.OnHit, fn)
		walkStmt(t.OnCollide, fn)
	case *BloomOp:
		walkStmt(t.OnHit, fn)
		walkStmt(t.OnMiss, fn)
	case *SketchBranch:
		walkStmt(t.OnTrue, fn)
		walkStmt(t.OnFalse, fn)
	}
}

// Blocks returns every labeled block nested in (and including) a statement.
func Blocks(s Stmt) []*Block {
	var out []*Block
	walkStmt(s, func(st Stmt) {
		if b, ok := st.(*Block); ok {
			out = append(out, b)
		}
	})
	return out
}

// Walk calls fn on every statement of the program, including table actions.
func (p *Program) Walk(fn func(Stmt)) {
	walkStmt(p.Root, fn)
	for _, t := range p.Tables {
		for _, e := range t.Entries {
			walkStmt(e.Action, fn)
		}
		walkStmt(t.Default, fn)
		walkStmt(t.SymbolicAction, fn)
	}
}

// Branch describes one conditional branch of the program, used by the
// telescoping guard scan (IsGuard in the paper's Figure 3).
type Branch struct {
	Cond Cond
	Then *Block
	Else *Block // may be nil
}

// Branches returns every If branch in the program.
func (p *Program) Branches() []Branch {
	var out []Branch
	p.Walk(func(s Stmt) {
		if f, ok := s.(*If); ok {
			b := Branch{Cond: f.Cond}
			if t, ok := f.Then.(*Block); ok {
				b.Then = t
			}
			if e, ok := f.Else.(*Block); ok {
				b.Else = e
			}
			out = append(out, b)
		}
	})
	return out
}

// StmtCount returns the total number of statements, a rough program size.
func (p *Program) StmtCount() int {
	n := 0
	p.Walk(func(Stmt) { n++ })
	return n
}

// ExpensiveNodes returns the IDs of CFG nodes that contain an expensive
// action (control-plane punt, digest, recirculation, mirror, or backend).
func (p *Program) ExpensiveNodes() map[int]bool {
	out := map[int]bool{}
	for _, b := range p.nodes {
		for _, s := range b.Stmts {
			if a, ok := s.(*Action); ok && a.Kind.Expensive() {
				out[b.ID] = true
			}
		}
	}
	return out
}

// SortedLabels returns all node labels sorted, for deterministic reports.
func (p *Program) SortedLabels() []string {
	out := make([]string, len(p.nodes))
	for i, b := range p.nodes {
		out[i] = b.Label
	}
	sort.Strings(out)
	return out
}
