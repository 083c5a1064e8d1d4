package ir

import "fmt"

// Problem is one violation of a program validity rule. Node and Block
// locate it at the innermost block enclosing the offending statement;
// problems with declarations, table keys and entries, and recursive table
// application are program-level, with Node -1 and an empty Block.
type Problem struct {
	Node  int
	Block string
	Msg   string
}

// String renders the problem with its block label, as Build reports it.
func (q Problem) String() string {
	if q.Node < 0 {
		return q.Msg
	}
	return fmt.Sprintf("block %q: %s", q.Block, q.Msg)
}

// Problems checks a built program against every validity rule and returns
// each violation: declarations first, then the packet body, then each
// table's actions, keys and entries, and recursive application last. It is
// the one rule set: Build fails on the first problem, and the analysis
// verifier reports them all. The rules:
//
//   - fields are 1..MaxFieldBits and registers 1..64 bits wide;
//   - no two fields, registers, register arrays, hash tables, Bloom
//     filters, sketches or tables share a name;
//   - every store has at least one cell, a Bloom filter a hash function and
//     a sketch a row;
//   - every referenced field, register, store and table is declared, in
//     the packet body, in table keys and in table actions;
//   - action kinds, binary operators and comparison operators are in range;
//   - each table entry has one match spec per key, and no range is empty;
//   - a constant array index is inside the array;
//   - no table is applied, directly or transitively, from its own actions:
//     the data plane has no call stack, and such a program never finishes
//     executing.
func (p *Program) Problems() []Problem {
	c := &checker{p: p}
	c.decls()
	walkBlocks(nil, p.Root, c.stmt)
	// applies maps each table to the tables its actions apply; it stays
	// nil, and the cycle search is skipped, when no action applies one.
	var applies map[string][]string
	for ti := range p.Tables {
		t := &p.Tables[ti]
		c.applied = c.applied[:0]
		for _, e := range t.Entries {
			walkBlocks(nil, e.Action, c.stmt)
		}
		walkBlocks(nil, t.Default, c.stmt)
		walkBlocks(nil, t.SymbolicAction, c.stmt)
		if len(c.applied) > 0 {
			if applies == nil {
				applies = map[string][]string{}
			}
			applies[t.Name] = append(applies[t.Name], c.applied...)
		}
		c.table(t)
	}
	if applies != nil {
		c.cycles(applies)
	}
	return c.out
}

type checker struct {
	p       *Program
	applied []string // tables applied by the current table's actions
	out     []Problem
}

// report records a problem inside block b, or a program-level one when b
// is nil.
func (c *checker) report(b *Block, format string, args ...interface{}) {
	q := Problem{Node: -1, Msg: fmt.Sprintf(format, args...)}
	if b != nil {
		q.Node, q.Block = b.ID, b.Label
	}
	c.out = append(c.out, q)
}

func (c *checker) decls() {
	p := c.p
	for _, f := range p.Fields {
		if f.Bits <= 0 || f.Bits > MaxFieldBits {
			c.report(nil, "field %q has invalid width %d (fields are 1..%d bits)", f.Name, f.Bits, MaxFieldBits)
		}
	}
	for _, d := range p.Regs {
		if d.Bits <= 0 || d.Bits > 64 {
			c.report(nil, "register %q has invalid width %d", d.Name, d.Bits)
		}
	}
	// Indices and hashes reduce modulo a store's size, so every store
	// needs a cell; without a hash function every key would test as a
	// Bloom member, and without a row every sketch estimate would be empty.
	for _, d := range p.RegArrays {
		if d.Size <= 0 {
			c.report(nil, "register array %q has invalid size %d", d.Name, d.Size)
		}
	}
	for _, d := range p.HashTables {
		if d.Size <= 0 {
			c.report(nil, "hash table %q has invalid size %d", d.Name, d.Size)
		}
	}
	for _, d := range p.Blooms {
		if d.Bits <= 0 || d.Hashes <= 0 {
			c.report(nil, "bloom filter %q has invalid shape (%d bits, %d hashes)", d.Name, d.Bits, d.Hashes)
		}
	}
	for _, d := range p.Sketches {
		if d.Rows <= 0 || d.Cols <= 0 {
			c.report(nil, "sketch %q has invalid shape %dx%d", d.Name, d.Rows, d.Cols)
		}
	}
	// Build keyed fields and registers by name, so those maps are short
	// exactly when a name repeats.
	if len(p.fieldByName) < len(p.Fields) {
		c.unique("field", len(p.Fields), func(i int) string { return p.Fields[i].Name })
	}
	if len(p.regByName) < len(p.Regs) {
		c.unique("register", len(p.Regs), func(i int) string { return p.Regs[i].Name })
	}
	c.unique("register array", len(p.RegArrays), func(i int) string { return p.RegArrays[i].Name })
	c.unique("hash table", len(p.HashTables), func(i int) string { return p.HashTables[i].Name })
	c.unique("bloom filter", len(p.Blooms), func(i int) string { return p.Blooms[i].Name })
	c.unique("sketch", len(p.Sketches), func(i int) string { return p.Sketches[i].Name })
	c.unique("table", len(p.Tables), func(i int) string { return p.Tables[i].Name })
}

// unique reports each of a kind's n declaration names that repeats an
// earlier one. A kind with fewer than two declarations needs no map.
func (c *checker) unique(kind string, n int, name func(i int) string) {
	if n < 2 {
		return
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		if seen[name(i)] {
			c.report(nil, "duplicate %s declaration %q", kind, name(i))
		}
		seen[name(i)] = true
	}
}

func (c *checker) stmt(b *Block, s Stmt) {
	p := c.p
	switch t := s.(type) {
	case *Assign:
		c.expr(b, t.Expr)
		if lv, ok := t.Target.(RegLV); ok {
			if _, ok := p.regByName[lv.Reg]; !ok {
				c.report(b, "assignment to unknown register %q", lv.Reg)
			}
		}
	case *If:
		c.cond(b, t.Cond)
	case *Action:
		if t.Kind < ActNoOp || t.Kind > ActToBackend {
			c.report(b, "unknown action kind %d", int(t.Kind))
		}
		c.expr(b, t.Arg)
	case *HashAccess:
		if _, ok := p.HashTable(t.Store); !ok {
			c.report(b, "access of unknown hash table %q", t.Store)
		}
		c.exprs(b, t.Key)
		c.expr(b, t.Value)
	case *BloomOp:
		if _, ok := p.Bloom(t.Filter); !ok {
			c.report(b, "test of unknown bloom filter %q", t.Filter)
		}
		c.exprs(b, t.Key)
	case *SketchUpdate:
		if _, ok := p.Sketch(t.Sketch); !ok {
			c.report(b, "update of unknown sketch %q", t.Sketch)
		}
		c.exprs(b, t.Key)
		c.expr(b, t.Inc)
	case *SketchBranch:
		if _, ok := p.Sketch(t.Sketch); !ok {
			c.report(b, "branch on unknown sketch %q", t.Sketch)
		}
		if !t.Op.Valid() {
			c.report(b, "sketch branch has invalid comparison operator %d", int(t.Op))
		}
		c.exprs(b, t.Key)
	case *ArrayRead:
		c.array(b, "read of", t.Array, t.Index, nil)
	case *ArrayWrite:
		c.array(b, "write to", t.Array, t.Index, t.Value)
	case *TableApply:
		if _, ok := p.Table(t.Table); !ok {
			c.report(b, "apply of unknown table %q", t.Table)
		}
		c.applied = append(c.applied, t.Table)
	}
}

// array checks an array access; value is nil for a read.
func (c *checker) array(b *Block, verb, name string, index, value Expr) {
	d, ok := c.p.RegArray(name)
	if !ok {
		c.report(b, "%s unknown register array %q", verb, name)
	}
	c.expr(b, index)
	c.expr(b, value)
	if k, isConst := index.(Const); ok && isConst && k.V >= uint64(d.Size) {
		c.report(b, "constant index %d out of bounds for array %q (size %d)", k.V, name, d.Size)
	}
}

func (c *checker) exprs(b *Block, es []Expr) {
	for _, e := range es {
		c.expr(b, e)
	}
}

func (c *checker) expr(b *Block, e Expr) {
	switch t := e.(type) {
	case FieldRef:
		if _, ok := c.p.fieldByName[t.Name]; !ok {
			c.report(b, "reference to unknown field %q", t.Name)
		}
	case RegRef:
		if _, ok := c.p.regByName[t.Reg]; !ok {
			c.report(b, "reference to unknown register %q", t.Reg)
		}
	case Bin:
		if t.Op < OpAdd || t.Op > OpShr {
			c.report(b, "invalid binary operator %d", int(t.Op))
		}
		c.expr(b, t.A)
		c.expr(b, t.B)
	case HashExpr:
		c.exprs(b, t.Args)
	}
}

func (c *checker) cond(b *Block, cd Cond) {
	switch t := cd.(type) {
	case Cmp:
		if !t.Op.Valid() {
			c.report(b, "invalid comparison operator %d", int(t.Op))
		}
		c.expr(b, t.A)
		c.expr(b, t.B)
	case Not:
		c.cond(b, t.C)
	case AndC:
		c.cond(b, t.A)
		c.cond(b, t.B)
	case OrC:
		c.cond(b, t.A)
		c.cond(b, t.B)
	}
}

func (c *checker) table(t *TableDecl) {
	c.exprs(nil, t.Keys)
	for ei, e := range t.Entries {
		if len(e.Match) != len(t.Keys) {
			c.report(nil, "table %q entry %d has %d match specs for %d keys",
				t.Name, ei, len(e.Match), len(t.Keys))
			continue
		}
		for ki, spec := range e.Match {
			if spec.Kind == MatchRange && spec.Lo > spec.Hi {
				c.report(nil, "table %q entry %d key %d has empty range [%d,%d]",
					t.Name, ei, ki, spec.Lo, spec.Hi)
			}
		}
	}
}

// cycles reports every table that some chain of table actions applies
// again while it is still being applied: a depth-first search over
// applies (table → tables its actions apply) names each back-edge target
// once.
func (c *checker) cycles(applies map[string][]string) {
	const onStack, named, done = 1, 2, 3 // named: on the stack and reported
	state := make(map[string]int, len(applies))
	var visit func(name string)
	visit = func(name string) {
		state[name] = onStack
		for _, dep := range applies[name] {
			switch state[dep] {
			case 0:
				visit(dep)
			case onStack:
				state[dep] = named
				c.report(nil, "table %q is applied recursively from its own actions", dep)
			}
		}
		state[name] = done
	}
	for ti := range c.p.Tables {
		if name := c.p.Tables[ti].Name; state[name] == 0 {
			visit(name)
		}
	}
}
