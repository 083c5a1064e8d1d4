package randprog

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dut"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/prob"
	zoo "repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/target"
	"repro/internal/trace"
)

// Soundness: for every symbolic path of a deterministic program, solving the
// path condition and replaying the witness packets on the concrete switch
// must visit exactly the blocks the path visited. This ties the symbolic
// engine, the solver, and the DUT together end to end, on every target
// model: both evaluators get the same model, so stage budgets, table
// capacity and recirculation rules must agree too.
func TestSymbexMatchesDUT(t *testing.T) {
	const programs = 60
	for _, model := range target.All() {
		model := model
		t.Run(model.Name, func(t *testing.T) {
			for seed := int64(0); seed < programs; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prog := Deterministic(rng, Options{WithTables: seed%3 == 0})
				checkSymbexAgainstDUT(t, fmt.Sprintf("seed %d", seed), prog, model, seed, true)
			}
		})
	}
}

// The zoo programs carry hash tables, Bloom filters, sketches, hash
// expressions and symbolic table entries, whose symbolic outcomes are
// probabilistic rather than fixed by the witness. There the check is
// coverage: whatever a witness replay does concretely must be one of the
// explored paths. Programs without such state get the exact check.
// switch.p4's ten havocked table keys fork millions of paths per packet,
// past any test budget, so it is the one program left unchecked.
func TestSymbexMatchesDUTZoo(t *testing.T) {
	for _, m := range zoo.All() {
		if m.Name == "switch.p4" {
			continue
		}
		for _, model := range target.All() {
			prog := m.Build()
			name := m.Name + "@" + model.Name
			if checkSymbexAgainstDUT(t, name, prog, model, 1, deterministic(prog)) == 0 {
				t.Errorf("%s: no witness path checked", name)
			}
		}
	}
}

// deterministic reports whether a program's block visits are a pure
// function of the packet headers and register state, as the symbolic
// engine tracks them exactly.
func deterministic(prog *ir.Program) bool {
	if prog.HasApprox() {
		return false
	}
	det := true
	var expr func(e ir.Expr)
	expr = func(e ir.Expr) {
		switch x := e.(type) {
		case ir.HashExpr:
			det = false
		case ir.Bin:
			// The engine keeps sums and differences linear; other
			// operators over symbolic operands yield fresh variables
			// that a witness does not tie back to the header.
			if x.Op != ir.OpAdd && x.Op != ir.OpSub {
				det = false
			}
			expr(x.A)
			expr(x.B)
		}
	}
	var cond func(c ir.Cond)
	cond = func(c ir.Cond) {
		switch x := c.(type) {
		case ir.Cmp:
			expr(x.A)
			expr(x.B)
		case ir.Not:
			cond(x.C)
		case ir.AndC:
			cond(x.A)
			cond(x.B)
		case ir.OrC:
			cond(x.A)
			cond(x.B)
		}
	}
	prog.Walk(func(st ir.Stmt) {
		switch x := st.(type) {
		case *ir.Assign:
			expr(x.Expr)
		case *ir.If:
			cond(x.Cond)
		case *ir.Action:
			if x.Arg != nil {
				expr(x.Arg)
			}
		case *ir.ArrayRead, *ir.ArrayWrite:
			det = false
		}
	})
	for _, tbl := range prog.Tables {
		if tbl.SymbolicEntries > 0 {
			det = false
		}
		for _, k := range tbl.Keys {
			expr(k)
		}
	}
	return det
}

// checkSymbexAgainstDUT explores two packets of prog symbolically, solves
// up to a dozen paths into witness packets and replays each on a fresh
// switch under the same target model. With exact set, the replay must
// visit exactly its own path's blocks; otherwise it must match the visits
// of some explored path. It returns the number of witnesses replayed
// (0 when exploration exceeds its budget).
func checkSymbexAgainstDUT(t *testing.T, name string, prog *ir.Program, model *target.Model, seed int64, exact bool) int {
	t.Helper()
	const (
		packets   = 2
		maxChecks = 12 // witness paths validated per program
	)
	// The switch halts a packet's pass at a drop; DropOptimization gives
	// the symbolic engine the same semantics.
	e := sym.NewEngine(prog, sym.Options{Greybox: true, MaxPaths: 1 << 14, DropOptimization: true, Target: model})
	paths := e.Initial()
	var err error
	for i := 0; i < packets; i++ {
		if paths, err = e.Step(paths, i); err != nil {
			return 0
		}
	}
	explored := map[string]bool{}
	for _, path := range paths {
		explored[visitKey(path.AllVisits)] = true
	}

	checked := 0
	for _, path := range paths {
		if checked >= maxChecks {
			break
		}
		asn, sat := solver.Solve(path.PC, e.Space, solver.SolveOptions{Seed: seed})
		if !sat {
			// Feasibility pruning is conservative; a path that the
			// full solver rejects must carry no probability mass.
			continue
		}
		checked++
		pkts := witnessPackets(prog, asn, packets)

		sw := dut.New(prog, dut.Config{Target: model})
		got := map[int]int{}
		sw.VisitHook = func(id int) { got[id]++ }
		for i := range pkts {
			sw.Process(&pkts[i])
		}

		if !exact {
			if !explored[visitKey(got)] {
				t.Fatalf("%s: DUT visits %v match no explored path\nprogram:\n%s",
					name, labelled(prog, got), prog.Format())
			}
			continue
		}
		for id, n := range path.AllVisits {
			if got[id] != n {
				t.Fatalf("%s: block %q visited %d times concretely, %d symbolically\nprogram:\n%s",
					name, prog.Node(id).Label, got[id], n, prog.Format())
			}
		}
		for id := range got {
			if path.AllVisits[id] == 0 {
				t.Fatalf("%s: DUT visited %q which the path did not\nprogram:\n%s",
					name, prog.Node(id).Label, prog.Format())
			}
		}
	}
	return checked
}

// visitKey canonicalizes a visit-count map.
func visitKey(v map[int]int) string {
	ids := make([]int, 0, len(v))
	for id, n := range v {
		if n > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d:%d,", id, v[id])
	}
	return b.String()
}

func labelled(prog *ir.Program, v map[int]int) map[string]int {
	out := map[string]int{}
	for id, n := range v {
		out[fmt.Sprintf("%d %s", id, prog.Node(id).Label)] = n
	}
	return out
}

// witnessPackets lays a solver assignment into concrete packets, defaulting
// unconstrained fields to zero (any value satisfies the path condition).
func witnessPackets(prog *ir.Program, asn map[solver.Var]uint64, n int) []trace.Packet {
	pkts := make([]trace.Packet, n)
	for i := range pkts {
		for _, f := range prog.Fields {
			if v, ok := asn[solver.Var{Pkt: i, Field: f.Name}]; ok {
				pkts[i].SetField(f.Name, v)
			}
		}
	}
	return pkts
}

// Completeness of probability: over all paths of a deterministic program,
// the probabilities must sum to 1 (the paths partition the packet space).
func TestPathProbabilitiesPartitionSpace(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := Deterministic(rng, Options{})

		e := sym.NewEngine(prog, sym.Options{Greybox: true, MaxPaths: 1 << 14})
		counter := mc.NewCounter(e.Space, nil)
		paths, err := e.Run(1)
		if err != nil {
			continue
		}
		total := prob.Zero()
		for _, p := range paths {
			total = total.Add(sym.PathProb(p, counter))
		}
		if math.Abs(total.Float()-1) > 1e-6 {
			t.Fatalf("seed %d: path mass %v != 1\nprogram:\n%s", seed, total.Float(), prog.Format())
		}
	}
}

// The generator itself must produce valid, non-trivial programs.
func TestGeneratorWellFormed(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := Deterministic(rng, Options{WithTables: seed%2 == 0})
		if len(prog.Nodes()) < 1 {
			t.Fatalf("seed %d: empty program", seed)
		}
		ids := map[int]bool{}
		for _, n := range prog.Nodes() {
			if ids[n.ID] {
				t.Fatalf("seed %d: duplicate node ID %d", seed, n.ID)
			}
			ids[n.ID] = true
		}
	}
}
