package ir

import "fmt"

// Layout gives a program's state dense slot indices, so the engines that
// execute it hold registers and metadata in flat slices instead of maps
// keyed by name:
//
//   - registers take slots 0..len(Regs)-1 in declaration order; a register
//     the program references without declaring it (only possible in a
//     program built without validation) gets the next slot at its first
//     reference;
//   - metadata names, which are declared implicitly by use, take slots in
//     the order the program first references them: statements in Walk
//     order, then table keys;
//   - visits are addressed by CFG node ID, which Build already numbers
//     densely from 0, so Nodes is the visit slot count.
//
// The concrete switch (dut) and the symbolic engine (sym) both lay out the
// program target.Model.Lower returns through NewLayout, so a name resolves
// to the same slot in either.
type Layout struct {
	Regs  []string // register slot -> name
	Meta  []string // metadata slot -> name
	Nodes int

	reg  map[string]int
	meta map[string]int
}

// NewLayout assigns the slots of every register and metadata name the
// program declares or references.
func NewLayout(p *Program) *Layout {
	l := &Layout{Nodes: len(p.Nodes()), reg: map[string]int{}, meta: map[string]int{}}
	for _, r := range p.Regs {
		l.addReg(r.Name)
	}
	p.Walk(func(s Stmt) {
		switch t := s.(type) {
		case *If:
			l.cond(t.Cond)
		case *Assign:
			switch lv := t.Target.(type) {
			case RegLV:
				l.addReg(lv.Reg)
			case MetaLV:
				l.addMeta(lv.Name)
			}
			l.expr(t.Expr)
		case *Action:
			l.expr(t.Arg)
		case *HashAccess:
			l.exprs(t.Key)
			l.expr(t.Value)
			l.dest(t.Dest)
		case *BloomOp:
			l.exprs(t.Key)
		case *SketchUpdate:
			l.exprs(t.Key)
			l.expr(t.Inc)
			l.dest(t.Dest)
		case *SketchBranch:
			l.exprs(t.Key)
		case *ArrayRead:
			l.expr(t.Index)
			l.addMeta(t.Dest)
		case *ArrayWrite:
			l.expr(t.Index)
			l.expr(t.Value)
		}
	})
	for _, t := range p.Tables {
		l.exprs(t.Keys)
	}
	return l
}

// RegSlot returns a register's slot.
func (l *Layout) RegSlot(name string) (int, bool) {
	i, ok := l.reg[name]
	return i, ok
}

// MetaSlot returns a metadata name's slot.
func (l *Layout) MetaSlot(name string) (int, bool) {
	i, ok := l.meta[name]
	return i, ok
}

// MustRegSlot and MustMetaSlot return a name's slot for an engine running
// the program the layout was built from. That program references no name
// the layout lacks, so a miss is an engine bug and panics.
func (l *Layout) MustRegSlot(name string) int {
	i, ok := l.reg[name]
	if !ok {
		panic(fmt.Sprintf("ir: register %q has no slot", name))
	}
	return i
}

func (l *Layout) MustMetaSlot(name string) int {
	i, ok := l.meta[name]
	if !ok {
		panic(fmt.Sprintf("ir: metadata %q has no slot", name))
	}
	return i
}

func (l *Layout) addReg(name string) {
	if _, ok := l.reg[name]; !ok {
		l.reg[name] = len(l.Regs)
		l.Regs = append(l.Regs, name)
	}
}

func (l *Layout) addMeta(name string) {
	if _, ok := l.meta[name]; !ok {
		l.meta[name] = len(l.Meta)
		l.Meta = append(l.Meta, name)
	}
}

// dest slots an optional metadata destination: a hash access or sketch
// update with Dest "" writes nothing.
func (l *Layout) dest(name string) {
	if name != "" {
		l.addMeta(name)
	}
}

func (l *Layout) exprs(es []Expr) {
	for _, e := range es {
		l.expr(e)
	}
}

func (l *Layout) expr(e Expr) {
	switch t := e.(type) {
	case RegRef:
		l.addReg(t.Reg)
	case MetaRef:
		l.addMeta(t.Name)
	case Bin:
		l.expr(t.A)
		l.expr(t.B)
	case HashExpr:
		l.exprs(t.Args)
	}
}

func (l *Layout) cond(c Cond) {
	switch t := c.(type) {
	case Cmp:
		l.expr(t.A)
		l.expr(t.B)
	case Not:
		l.cond(t.C)
	case AndC:
		l.cond(t.A)
		l.cond(t.B)
	case OrC:
		l.cond(t.A)
		l.cond(t.B)
	}
}
