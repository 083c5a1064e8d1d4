package ir

import (
	"fmt"
	"sort"
)

// Build finalizes a program: it wraps every branch arm into a labeled Block,
// assigns CFG node IDs, fills lookup maps, and fails on the first of the
// program's Problems. Build must be called exactly once before the program
// is executed or analyzed; it returns the program to allow chaining.
func (p *Program) Build() (*Program, error) {
	return p.build(true)
}

// BuildUnvalidated finalizes a program like Build but does not check its
// Problems. It is the lenient loader for the analysis verifier, which
// reports every problem as a structured diagnostic instead of stopping at
// Build's first error. Programs built this way must not be executed.
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
		p.fieldByName[f.Name] = f
	}
	p.regByName = make(map[string]RegDecl, len(p.Regs))
	for _, r := range p.Regs {
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
		if probs := p.Problems(); len(probs) > 0 {
			p.built = false
			return nil, fmt.Errorf("ir: %s: %s", p.Name, probs[0])
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

// WalkStmt calls fn on s and every statement nested beneath it; it does not
// follow TableApply into table actions (Program.Walk visits those).
func WalkStmt(s Stmt, fn func(Stmt)) {
	walkBlocks(nil, s, func(_ *Block, st Stmt) { fn(st) })
}

// walkBlocks is the one statement traversal: pre-order, passing the
// innermost labeled block enclosing each statement (the statement itself
// when it is a block; b until the walk enters one).
func walkBlocks(b *Block, s Stmt, fn func(*Block, Stmt)) {
	if s == nil {
		return
	}
	if blk, ok := s.(*Block); ok {
		b = blk
	}
	fn(b, s)
	switch t := s.(type) {
	case *Block:
		for _, c := range t.Stmts {
			walkBlocks(b, c, fn)
		}
	case *If:
		walkBlocks(b, t.Then, fn)
		walkBlocks(b, t.Else, fn)
	case *HashAccess:
		walkBlocks(b, t.OnEmpty, fn)
		walkBlocks(b, t.OnHit, fn)
		walkBlocks(b, t.OnCollide, fn)
	case *BloomOp:
		walkBlocks(b, t.OnHit, fn)
		walkBlocks(b, t.OnMiss, fn)
	case *SketchBranch:
		walkBlocks(b, t.OnTrue, fn)
		walkBlocks(b, t.OnFalse, fn)
	}
}

// Blocks returns every labeled block nested in (and including) a statement.
func Blocks(s Stmt) []*Block {
	var out []*Block
	WalkStmt(s, func(st Stmt) {
		if b, ok := st.(*Block); ok {
			out = append(out, b)
		}
	})
	return out
}

// Walk calls fn on every statement of the program, including table actions.
func (p *Program) Walk(fn func(Stmt)) {
	p.WalkBlocks(func(_ *Block, s Stmt) { fn(s) })
}

// WalkBlocks calls fn on every statement of the program, root first and
// then each table's actions, with the innermost labeled block enclosing the
// statement. Every statement of a built program has one.
func (p *Program) WalkBlocks(fn func(b *Block, s Stmt)) {
	walkBlocks(nil, p.Root, fn)
	for ti := range p.Tables {
		t := &p.Tables[ti]
		for _, e := range t.Entries {
			walkBlocks(nil, e.Action, fn)
		}
		walkBlocks(nil, t.Default, fn)
		walkBlocks(nil, t.SymbolicAction, fn)
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
