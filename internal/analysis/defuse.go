package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// StateDep records, for one piece of persistent or per-packet state, the
// CFG nodes that read it and the nodes that write it.
type StateDep struct {
	Name string
	Kind string // "register", "array", "hash", "bloom", "sketch", "meta"
	// Readers and Writers are sorted CFG node IDs.
	Readers []int
	Writers []int
}

// DepGraph is the program's state-dependency graph: which blocks read and
// write which registers, register arrays, and approximate structures. It is
// the lint-level analogue of the paper's observation that adversarial state
// coupling flows through shared stateful objects.
type DepGraph struct {
	prog   *ir.Program
	States []StateDep
}

// String renders the graph with block labels, one state object per line.
// Output order is always (kind, name) with sorted node IDs, regardless of
// how States was assembled — CI diffs and golden tests depend on the
// rendering being deterministic even for hand-built graphs.
func (g *DepGraph) String() string {
	var b strings.Builder
	labels := func(ids []int) string {
		if len(ids) == 0 {
			return "-"
		}
		ids = append([]int(nil), ids...)
		sort.Ints(ids)
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprintf("%s(#%d)", g.prog.Node(id).Label, id)
		}
		return strings.Join(parts, " ")
	}
	states := append([]StateDep(nil), g.States...)
	sort.Slice(states, func(i, j int) bool {
		if states[i].Kind != states[j].Kind {
			return states[i].Kind < states[j].Kind
		}
		return states[i].Name < states[j].Name
	})
	for _, s := range states {
		fmt.Fprintf(&b, "%-8s %-16s readers: %s\n", s.Kind, s.Name, labels(s.Readers))
		fmt.Fprintf(&b, "%-8s %-16s writers: %s\n", "", "", labels(s.Writers))
	}
	return b.String()
}

// accessKey identifies one state object during collection.
type accessKey struct{ kind, name string }

type accessSets struct {
	readers map[int]bool
	writers map[int]bool
}

// defUse runs the def-use lint pass: it builds the state-dependency graph
// and flags dead stores (state written but never read), reads of
// never-written state, and per-packet metadata read before any possible
// write.
func defUse(p *ir.Program, r *Report) {
	acc := map[accessKey]*accessSets{}
	get := func(kind, name string) *accessSets {
		k := accessKey{kind, name}
		if a, ok := acc[k]; ok {
			return a
		}
		a := &accessSets{readers: map[int]bool{}, writers: map[int]bool{}}
		acc[k] = a
		return a
	}
	// Declare every state object up front so never-accessed ones appear in
	// the graph (and can be flagged as unused).
	for _, d := range p.Regs {
		get("register", d.Name)
	}
	for _, d := range p.RegArrays {
		get("array", d.Name)
	}
	for _, d := range p.HashTables {
		get("hash", d.Name)
	}
	for _, d := range p.Blooms {
		get("bloom", d.Name)
	}
	for _, d := range p.Sketches {
		get("sketch", d.Name)
	}

	// seenMetaWrite accumulates metadata names that have at least one write
	// earlier in the pre-order walk; a read with no earlier write on *any*
	// path always observes the implicit zero. Applying a table counts every
	// write inside the table's actions (the walk visits those bodies after
	// the root, but execution interleaves them at the apply site).
	seenMetaWrite := map[string]bool{}
	tableMetaWrites := map[string][]string{}
	for ti := range p.Tables {
		t := &p.Tables[ti]
		var names []string
		collect := func(s ir.Stmt) {
			ir.WalkStmt(s, func(st ir.Stmt) {
				switch w := st.(type) {
				case *ir.Assign:
					if lv, ok := w.Target.(ir.MetaLV); ok {
						names = append(names, lv.Name)
					}
				case *ir.HashAccess:
					if w.Dest != "" {
						names = append(names, w.Dest)
					}
				case *ir.SketchUpdate:
					if w.Dest != "" {
						names = append(names, w.Dest)
					}
				case *ir.ArrayRead:
					if w.Dest != "" {
						names = append(names, w.Dest)
					}
				}
			})
		}
		for _, e := range t.Entries {
			collect(e.Action)
		}
		collect(t.Default)
		collect(t.SymbolicAction)
		tableMetaWrites[t.Name] = names
	}
	type metaRead struct {
		block *ir.Block
		name  string
	}
	var earlyReads []metaRead

	noteExprReads := func(b *ir.Block, es ...ir.Expr) {
		for _, e := range es {
			walkExpr(e, func(x ir.Expr) {
				switch t := x.(type) {
				case ir.RegRef:
					if b != nil {
						get("register", t.Reg).readers[b.ID] = true
					}
				case ir.MetaRef:
					if b != nil {
						get("meta", t.Name).readers[b.ID] = true
					}
					if !seenMetaWrite[t.Name] {
						earlyReads = append(earlyReads, metaRead{b, t.Name})
					}
				}
			})
		}
	}
	noteCondReads := func(b *ir.Block, c ir.Cond) {
		walkCond(c, func(cc ir.Cond) {
			if cmp, ok := cc.(ir.Cmp); ok {
				noteExprReads(b, cmp.A, cmp.B)
			}
		})
	}

	p.WalkBlocks(func(b *ir.Block, s ir.Stmt) {
		id := -1
		if b != nil {
			id = b.ID
		}
		mark := func(set map[int]bool) {
			if id >= 0 {
				set[id] = true
			}
		}
		switch t := s.(type) {
		case *ir.Assign:
			noteExprReads(b, t.Expr)
			switch lv := t.Target.(type) {
			case ir.RegLV:
				mark(get("register", lv.Reg).writers)
			case ir.MetaLV:
				mark(get("meta", lv.Name).writers)
				seenMetaWrite[lv.Name] = true
			}
		case *ir.If:
			noteCondReads(b, t.Cond)
		case *ir.Action:
			noteExprReads(b, t.Arg)
		case *ir.HashAccess:
			a := get("hash", t.Store)
			mark(a.readers)
			if t.Write {
				mark(a.writers)
			}
			noteExprReads(b, t.Key...)
			noteExprReads(b, t.Value)
			if t.Dest != "" {
				mark(get("meta", t.Dest).writers)
				seenMetaWrite[t.Dest] = true
			}
		case *ir.BloomOp:
			a := get("bloom", t.Filter)
			mark(a.readers)
			if t.Insert {
				mark(a.writers)
			}
			noteExprReads(b, t.Key...)
		case *ir.SketchUpdate:
			a := get("sketch", t.Sketch)
			mark(a.writers)
			if t.Dest != "" {
				mark(a.readers) // the estimate is read back
				mark(get("meta", t.Dest).writers)
				seenMetaWrite[t.Dest] = true
			}
			noteExprReads(b, t.Key...)
			noteExprReads(b, t.Inc)
		case *ir.SketchBranch:
			mark(get("sketch", t.Sketch).readers)
			noteExprReads(b, t.Key...)
		case *ir.ArrayRead:
			mark(get("array", t.Array).readers)
			noteExprReads(b, t.Index)
			if t.Dest != "" {
				mark(get("meta", t.Dest).writers)
				seenMetaWrite[t.Dest] = true
			}
		case *ir.ArrayWrite:
			mark(get("array", t.Array).writers)
			noteExprReads(b, t.Index, t.Value)
		case *ir.TableApply:
			if tbl, ok := p.Table(t.Table); ok {
				for _, k := range tbl.Keys {
					noteExprReads(b, k)
				}
			}
			for _, name := range tableMetaWrites[t.Table] {
				seenMetaWrite[name] = true
			}
		}
	})

	// Diagnostics and the graph, in (kind, name) order so the report is
	// deterministic.
	keys := make([]accessKey, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].name < keys[j].name
	})
	for _, k := range keys {
		a := acc[k]
		switch {
		case k.kind == "meta":
			if len(a.readers) > 0 && len(a.writers) == 0 {
				r.add("defuse", SevWarn, -1, "",
					"metadata %q is read but never written (always zero)", k.name)
			} else if len(a.writers) > 0 && len(a.readers) == 0 {
				r.add("defuse", SevInfo, -1, "",
					"metadata %q is written but never read (dead store)", k.name)
			}
		case len(a.readers) == 0 && len(a.writers) == 0:
			r.add("defuse", SevInfo, -1, "",
				"%s %q is declared but never accessed", k.kind, k.name)
		case len(a.writers) > 0 && len(a.readers) == 0:
			// Approximate structures are often write-only from the data
			// plane's perspective: the control plane reads them for
			// telemetry. Only a write-only register is a likely dead store.
			if k.kind == "register" {
				r.add("defuse", SevWarn, -1, "",
					"register %q is written but never read (dead store)", k.name)
			} else {
				r.add("defuse", SevInfo, -1, "",
					"%s %q is only written by the data plane (control-plane telemetry?)", k.kind, k.name)
			}
		case k.kind == "register" && len(a.readers) > 0 && len(a.writers) == 0:
			r.add("defuse", SevInfo, -1, "",
				"register %q is read but never written (constant %d)", k.name, regInit(p, k.name))
		}
	}
	// Metadata read-before-write: the pre-order walk over-approximates the
	// set of writes that can precede a read, so a read flagged here has no
	// possible earlier write on any execution and observes the implicit
	// zero. Reads of entirely unwritten metadata are already reported above.
	for _, er := range earlyReads {
		a := acc[accessKey{"meta", er.name}]
		if a == nil || len(a.writers) == 0 {
			continue
		}
		if er.block != nil {
			r.addNode("defuse", SevWarn, er.block,
				"metadata %q may be read before its first write (reads zero)", er.name)
		}
	}

	// Assemble the graph.
	g := &DepGraph{prog: p}
	for _, k := range keys {
		a := acc[k]
		g.States = append(g.States, StateDep{
			Name:    k.name,
			Kind:    k.kind,
			Readers: sortedIDs(a.readers),
			Writers: sortedIDs(a.writers),
		})
	}
	r.Deps = g
}

func regInit(p *ir.Program, name string) uint64 {
	if d, ok := p.Reg(name); ok {
		return d.Init
	}
	return 0
}

func sortedIDs(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
