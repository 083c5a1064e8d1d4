// Information-flow control pass (pass name "ifc"): a forward taint-lattice
// dataflow analysis in the spirit of P4BID, extended with the repo's
// probability profile. Against a policy naming secret sources (header
// fields, registers, state structures) and public sinks (observable
// actions, control-plane-readable structures) it tracks explicit flows
// through assignments and extern calls, implicit flows through branch
// conditions (including the three-way extern continuations), and
// cross-packet flows through persistent state — the channel the
// state-dependency graph of the defuse pass describes. Each leak carries a
// source→sink witness chain of CFG nodes; joining the chain against a
// probability profile weights the leak by how likely real traffic is to
// exercise it ("this secret reaches a public counter on a path with
// p≈1e-4"), a combination neither the profiling paper nor the IFC papers
// have.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/prob"
)

// Leak is one policy violation: a flow from a secret source to a public
// sink.
type Leak struct {
	Source ir.SecRef
	Sink   ir.SecRef
	// Node/Block anchor the sink occurrence in the CFG.
	Node  int
	Block string
	// Implicit marks a flow carried only by branch conditions (the sink
	// event's occurrence reveals the secret, not its payload).
	Implicit bool
	// Witness is the flow's CFG node chain, source end first, ending at
	// the sink node.
	Witness []int

	// P is the witness path's probability under a profile: the rarest
	// block on the chain bounds how often per packet the whole flow is
	// exercised. Weighted reports whether a profile join happened (P is
	// One and meaningless otherwise).
	P        prob.P
	Weighted bool
}

// IFCResult is the ifc pass's structured output.
type IFCResult struct {
	Policy *ir.SecPolicy
	// Leaks are sorted by sink node (then sink, source) after the pass;
	// Weight re-ranks them by descending path probability.
	Leaks []Leak
	// Rounds is the number of per-packet fixpoint rounds the
	// cross-packet propagation needed before the persistent-state labels
	// stabilized.
	Rounds int
}

// HasLeaks reports whether any flow violates the policy.
func (res *IFCResult) HasLeaks() bool { return len(res.Leaks) > 0 }

// MaxP returns the largest leak probability (Zero when unweighted or no
// leaks).
func (res *IFCResult) MaxP() prob.P {
	max := prob.Zero()
	for _, l := range res.Leaks {
		if l.Weighted && max.Less(l.P) {
			max = l.P
		}
	}
	return max
}

// Weight joins every leak's witness chain against per-block probabilities
// (typically a finished core profile) and re-ranks leaks by descending
// path probability — the most-exercised leaks first, because those leak
// fastest in deployment. The path probability is the minimum block
// probability along the witness: every block on the chain must execute
// for the flow to complete, and on the nested chains the walker emits the
// rarest block dominates.
func (res *IFCResult) Weight(blockP func(node int) (prob.P, bool)) {
	for i := range res.Leaks {
		l := &res.Leaks[i]
		p := prob.One()
		found := false
		for _, node := range l.Witness {
			if bp, ok := blockP(node); ok {
				found = true
				if bp.Less(p) {
					p = bp
				}
			}
		}
		if found {
			l.P = p
			l.Weighted = true
		}
	}
	sort.SliceStable(res.Leaks, func(i, j int) bool {
		a, b := res.Leaks[i], res.Leaks[j]
		if a.P.Log10() != b.P.Log10() {
			return b.P.Less(a.P) // descending probability
		}
		return a.Node < b.Node
	})
}

// WitnessString renders a leak's chain with block labels:
// "entry(#0) -> tcp(#1) -> tcp_sample(#3)".
func (res *IFCResult) WitnessString(p *ir.Program, l Leak) string {
	return witnessString(p, l.Witness)
}

func witnessString(p *ir.Program, nodes []int) string {
	if len(nodes) == 0 {
		return "-"
	}
	parts := make([]string, len(nodes))
	for i, id := range nodes {
		parts[i] = fmt.Sprintf("%s(#%d)", p.Node(id).Label, id)
	}
	return strings.Join(parts, " -> ")
}

// IFCOnly runs just the passes the information-flow analysis needs (the
// def-use pass for the state-dependency graph, then ifc) and returns the
// structured result, or nil when the program has no policy. The
// convenience entry the profiler's report join uses; `Analyze` runs the
// same pass as part of the full suite.
func IFCOnly(p *ir.Program) *IFCResult {
	if p.Policy.Empty() {
		return nil
	}
	r := &Report{Program: p.Name, Unreachable: map[int]bool{}, Dead: map[int]bool{}}
	defUse(p, r)
	return ifc(p, p.Policy, r)
}

// ifc runs the taint pass. r.Deps must be populated (defUse has run).
func ifc(p *ir.Program, pol *ir.SecPolicy, r *Report) *IFCResult {
	res := &IFCResult{Policy: pol}
	if !validatePolicy(p, pol, r) {
		return res
	}

	w := &ifcWalker{
		p:            p,
		env:          newTaintEnv(),
		secretFields: map[string]ir.SecRef{},
		secretMeta:   map[string]ir.SecRef{},
		secretState:  map[stateKey]ir.SecRef{},
		sinkActions:  map[string]ir.SecRef{},
		sinkState:    map[stateKey]ir.SecRef{},
		leaks:        map[leakKey]*Leak{},
	}
	for _, ref := range pol.Secrets {
		switch ref.Kind {
		case ir.KindField:
			w.secretFields[ref.Name] = ref
		case ir.KindMeta:
			w.secretMeta[ref.Name] = ref
		default:
			w.secretState[stateKey{ref.Kind, ref.Name}] = ref
		}
	}
	for _, ref := range pol.Sinks {
		if ref.Kind == ir.KindAction {
			w.sinkActions[ref.Name] = ref
		} else {
			w.sinkState[stateKey{ref.Kind, ref.Name}] = ref
		}
	}

	// The state-dependency graph drives two decisions. First, a
	// state-only secret that no block ever reads cannot flow anywhere —
	// the pass is skipped outright when that holds for every secret (the
	// common zoo case of telemetry-only structures). Second, the number
	// of fixpoint rounds cross-packet propagation can need is bounded by
	// the longest chain of written state objects, so the loop is capped
	// by the graph's writer count instead of an arbitrary constant.
	writtenStates := 0
	stateRead := map[stateKey]bool{}
	if r.Deps != nil {
		for _, s := range r.Deps.States {
			k := stateKey{s.Kind, s.Name}
			if len(s.Writers) > 0 {
				writtenStates++
			}
			if len(s.Readers) > 0 {
				stateRead[k] = true
			}
		}
	}
	if len(w.secretFields) == 0 && len(w.secretMeta) == 0 && r.Deps != nil {
		anyReadable := false
		for k := range w.secretState {
			if stateRead[k] {
				anyReadable = true
				break
			}
		}
		if !anyReadable {
			r.add("ifc", SevInfo, -1, "",
				"no secret state object is ever read; no flow is possible")
			return res
		}
	}

	// Tables applied somewhere get their actions walked at the apply site
	// (under the keys' implicit-flow context); the rest are walked
	// standalone so unreferenced tables still lint (reachability reports
	// them separately as CFG-unreachable).
	appliedAnywhere := map[string]bool{}
	noteApplies := func(s ir.Stmt) {
		ir.WalkStmt(s, func(st ir.Stmt) {
			if ap, ok := st.(*ir.TableApply); ok {
				appliedAnywhere[ap.Table] = true
			}
		})
	}
	noteApplies(p.Root)
	for ti := range p.Tables {
		for _, e := range p.Tables[ti].Entries {
			noteApplies(e.Action)
		}
		noteApplies(p.Tables[ti].Default)
		noteApplies(p.Tables[ti].SymbolicAction)
	}

	// Cross-packet fixpoint: persistent labels only grow, so the loop
	// terminates; the +2 covers the seeding round and the final
	// no-change confirmation round.
	maxRounds := writtenStates + 2
	for round := 0; round < maxRounds; round++ {
		res.Rounds = round + 1
		w.env.meta = map[string]label{}
		for k, ref := range w.secretState {
			w.env.taintState(k, label{ref: nil})
		}
		for name, ref := range w.secretMeta {
			w.env.taintMeta(name, label{ref: nil})
		}
		// Seeding is not propagation: only taint that the walk itself
		// pushes into persistent state forces another round.
		w.env.stateChanged = false
		w.walk(nil, p.Root)
		for ti := range p.Tables {
			if !appliedAnywhere[p.Tables[ti].Name] {
				w.walkTable(nil, &p.Tables[ti])
			}
		}
		if !w.env.stateChanged {
			break
		}
	}

	// Deterministic ordering: sink node, then sink, source, flow kind.
	for _, l := range w.leaks {
		res.Leaks = append(res.Leaks, *l)
	}
	sort.Slice(res.Leaks, func(i, j int) bool {
		a, b := res.Leaks[i], res.Leaks[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Sink != b.Sink {
			return a.Sink.String() < b.Sink.String()
		}
		return a.Source.String() < b.Source.String()
	})
	for _, l := range res.Leaks {
		flow := "explicit"
		if l.Implicit {
			flow = "implicit"
		}
		r.add("ifc", SevWarn, l.Node, l.Block,
			"secret %s reaches public sink %s (%s flow) via %s",
			l.Source, l.Sink, flow, witnessString(p, l.Witness))
	}
	return res
}

// leakKey dedups one (source, sink, sink-site) triple across fixpoint
// rounds; an explicit flow replaces an implicit one for the same triple.
type leakKey struct {
	src  ir.SecRef
	sink ir.SecRef
	node int
}

// ifcWalker is the abstract interpreter of the taint pass.
type ifcWalker struct {
	p   *ir.Program
	env *taintEnv

	secretFields map[string]ir.SecRef
	secretMeta   map[string]ir.SecRef
	secretState  map[stateKey]ir.SecRef
	sinkActions  map[string]ir.SecRef
	sinkState    map[stateKey]ir.SecRef

	leaks   map[leakKey]*Leak
	applied map[string]bool
}

// nodeOf returns the CFG anchor for the innermost enclosing block.
func nodeOf(b *ir.Block) int {
	if b == nil {
		return -1
	}
	return b.ID
}

// exprLabel computes the taint label of an expression read at block b.
func (w *ifcWalker) exprLabel(b *ir.Block, e ir.Expr) label {
	var out label
	walkExpr(e, func(x ir.Expr) {
		switch t := x.(type) {
		case ir.FieldRef:
			if ref, ok := w.secretFields[t.Name]; ok {
				out, _ = out.join(label{ref: []int{nodeOf(b)}})
			}
		case ir.RegRef:
			out, _ = out.join(w.env.state[stateKey{ir.KindRegister, t.Reg}].at(nodeOf(b)))
		case ir.MetaRef:
			out, _ = out.join(w.env.meta[t.Name].at(nodeOf(b)))
		}
	})
	return out
}

// exprsLabel joins the labels of several expressions.
func (w *ifcWalker) exprsLabel(b *ir.Block, es ...ir.Expr) label {
	var out label
	for _, e := range es {
		out, _ = out.join(w.exprLabel(b, e))
	}
	return out
}

// condLabel computes the taint label of a branch condition.
func (w *ifcWalker) condLabel(b *ir.Block, c ir.Cond) label {
	var out label
	walkCond(c, func(cc ir.Cond) {
		if cmp, ok := cc.(ir.Cmp); ok {
			out, _ = out.join(w.exprsLabel(b, cmp.A, cmp.B))
		}
	})
	return out
}

// sink records leaks at a sink occurrence: explicit carries data-flow
// taint into the sink's payload, implicit the enclosing branch taint (the
// occurrence itself is the signal).
func (w *ifcWalker) sink(b *ir.Block, ref ir.SecRef, explicit, implicit label) {
	node := nodeOf(b)
	if node < 0 {
		return
	}
	record := func(src ir.SecRef, wit []int, isImplicit bool) {
		k := leakKey{src, ref, node}
		if prev, ok := w.leaks[k]; ok {
			if prev.Implicit && !isImplicit {
				prev.Implicit = false // upgrade: explicit flow found later
			}
			return
		}
		chain := append([]int(nil), wit...)
		if n := len(chain); n == 0 || chain[n-1] != node {
			chain = append(chain, node)
		}
		w.leaks[k] = &Leak{
			Source: src, Sink: ref, Node: node, Block: w.p.Node(node).Label,
			Implicit: isImplicit, Witness: chain, P: prob.One(),
		}
	}
	for _, src := range explicit.sources() {
		record(src, explicit[src], false)
	}
	for _, src := range implicit.sources() {
		if _, ok := explicit[src]; ok {
			continue
		}
		record(src, implicit[src], true)
	}
}

// stateWrite joins taint into a persistent cell and reports a leak when
// the cell is a public sink.
func (w *ifcWalker) stateWrite(b *ir.Block, k stateKey, explicit label) {
	pc := w.env.pcLabel()
	eff, _ := explicit.join(pc)
	w.env.taintState(k, eff.at(nodeOf(b)))
	if ref, ok := w.sinkState[k]; ok {
		w.sink(b, ref, explicit, pc)
	}
}

// walk interprets a statement with b as the innermost enclosing block.
func (w *ifcWalker) walk(b *ir.Block, s ir.Stmt) {
	if s == nil {
		return
	}
	switch t := s.(type) {
	case *ir.Block:
		for _, c := range t.Stmts {
			w.walk(t, c)
		}

	case *ir.If:
		cond := w.condLabel(b, t.Cond)
		w.env.push(cond.at(nodeOf(b)))
		w.walk(b, t.Then)
		w.walk(b, t.Else)
		w.env.pop()

	case *ir.Assign:
		val := w.exprLabel(b, t.Expr)
		switch lv := t.Target.(type) {
		case ir.RegLV:
			w.stateWrite(b, stateKey{ir.KindRegister, lv.Reg}, val)
		case ir.MetaLV:
			eff, _ := val.join(w.env.pcLabel())
			w.env.taintMeta(lv.Name, eff.at(nodeOf(b)))
		}

	case *ir.Action:
		if ref, ok := w.sinkActions[t.Kind.String()]; ok {
			w.sink(b, ref, w.exprLabel(b, t.Arg), w.env.pcLabel())
		}

	case *ir.HashAccess:
		k := stateKey{ir.KindHash, t.Store}
		keyL := w.exprsLabel(b, t.Key...)
		stored := w.env.state[k].at(nodeOf(b))
		if t.Dest != "" {
			// The loaded value carries the table contents, the key that
			// selected the slot, and the enclosing branch context.
			eff, _ := stored.join(keyL)
			eff, _ = eff.join(w.env.pcLabel())
			w.env.taintMeta(t.Dest, eff.at(nodeOf(b)))
		}
		if t.Write {
			valL := w.exprLabel(b, t.Value)
			eff, _ := valL.join(keyL)
			w.stateWrite(b, k, eff)
		}
		// The three-way continuation observes both the probe key and the
		// table contents: an implicit flow into every arm.
		branch, _ := keyL.join(stored)
		w.env.push(branch.at(nodeOf(b)))
		w.walk(b, t.OnEmpty)
		w.walk(b, t.OnHit)
		w.walk(b, t.OnCollide)
		w.env.pop()

	case *ir.BloomOp:
		k := stateKey{ir.KindBloom, t.Filter}
		keyL := w.exprsLabel(b, t.Key...)
		stored := w.env.state[k].at(nodeOf(b))
		if t.Insert {
			w.stateWrite(b, k, keyL)
		}
		branch, _ := keyL.join(stored)
		w.env.push(branch.at(nodeOf(b)))
		w.walk(b, t.OnHit)
		w.walk(b, t.OnMiss)
		w.env.pop()

	case *ir.SketchUpdate:
		k := stateKey{ir.KindSketch, t.Sketch}
		keyL := w.exprsLabel(b, t.Key...)
		incL := w.exprLabel(b, t.Inc)
		eff, _ := keyL.join(incL)
		w.stateWrite(b, k, eff)
		if t.Dest != "" {
			est, _ := w.env.state[k].at(nodeOf(b)).join(keyL)
			est, _ = est.join(w.env.pcLabel())
			w.env.taintMeta(t.Dest, est.at(nodeOf(b)))
		}

	case *ir.SketchBranch:
		k := stateKey{ir.KindSketch, t.Sketch}
		keyL := w.exprsLabel(b, t.Key...)
		branch, _ := keyL.join(w.env.state[k].at(nodeOf(b)))
		w.env.push(branch.at(nodeOf(b)))
		w.walk(b, t.OnTrue)
		w.walk(b, t.OnFalse)
		w.env.pop()

	case *ir.ArrayRead:
		k := stateKey{ir.KindArray, t.Array}
		if t.Dest != "" {
			eff, _ := w.env.state[k].at(nodeOf(b)).join(w.exprLabel(b, t.Index))
			eff, _ = eff.join(w.env.pcLabel())
			w.env.taintMeta(t.Dest, eff.at(nodeOf(b)))
		}

	case *ir.ArrayWrite:
		k := stateKey{ir.KindArray, t.Array}
		eff, _ := w.exprLabel(b, t.Index).join(w.exprLabel(b, t.Value))
		w.stateWrite(b, k, eff)

	case *ir.TableApply:
		if tbl, ok := w.p.Table(t.Table); ok {
			if w.applied == nil {
				w.applied = map[string]bool{}
			}
			if !w.applied[t.Table] {
				w.applied[t.Table] = true
				keyL := w.exprsLabel(b, tbl.Keys...)
				// Which entry matches is determined by the keys: an
				// implicit flow into every action body.
				w.env.push(keyL.at(nodeOf(b)))
				w.walkTable(b, tbl)
				w.env.pop()
				w.applied[t.Table] = false
			}
		}
	}
}

func (w *ifcWalker) walkTable(b *ir.Block, tbl *ir.TableDecl) {
	for _, e := range tbl.Entries {
		w.walk(b, e.Action)
	}
	w.walk(b, tbl.Default)
	w.walk(b, tbl.SymbolicAction)
}
