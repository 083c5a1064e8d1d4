package analysis_test

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/randprog"
	"repro/internal/solver"
	"repro/internal/sym"
)

// Soundness of the prune set: a block the analysis calls unreachable or
// statically dead must never be visited by a symbolic path that the full
// solver proves feasible. Random deterministic programs exercise nesting,
// guards, and tables far beyond the hand-written unit tests.
func TestPruneSetSoundness(t *testing.T) {
	programs, packets := int64(40), 2
	if testing.Short() {
		programs = 12
	}
	prunedPrograms := 0
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randprog.Deterministic(rng, randprog.Options{WithTables: seed%3 == 0})

		report := analysis.Analyze(prog)
		if report.HasErrors() {
			t.Fatalf("seed %d: random program has verifier errors:\n%s\nprogram:\n%s",
				seed, report, prog.Format())
		}
		prune := report.PruneSet()
		if len(prune) > 0 {
			prunedPrograms++
		}

		// Explore WITHOUT pruning so the engine can wander into any block.
		e := sym.NewEngine(prog, sym.Options{Greybox: true, MaxPaths: 1 << 14})
		paths := e.Initial()
		var err error
		ok := true
		for i := 0; i < packets; i++ {
			paths, err = e.Step(paths, i)
			if err != nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}

		for _, path := range paths {
			hitsPruned := false
			for id := range prune {
				if path.VisitCount(id) > 0 {
					hitsPruned = true
					break
				}
			}
			if !hitsPruned {
				continue
			}
			// The engine over-approximates; only a solver witness proves the
			// path (and hence the pruned block) actually reachable.
			if _, sat := solver.Solve(path.PC, e.Space, solver.SolveOptions{Seed: seed}); !sat {
				continue
			}
			for id := range prune {
				if path.VisitCount(id) > 0 {
					t.Fatalf("seed %d: block %q is in the prune set but a satisfiable path visits it\nreport:\n%s\nprogram:\n%s",
						seed, prog.Node(id).Label, report, prog.Format())
				}
			}
		}
	}
	// The generator rarely emits contradictory nesting, so do not require
	// pruned programs — but log the rate so a regression to "never prunes
	// anything" is visible.
	t.Logf("%d/%d random programs had a non-empty prune set", prunedPrograms, programs)
}

// With pruning enabled the engine must produce exactly the same set of
// feasible behaviors: every (satisfiable) visited-block multiset present
// without pruning is present with it.
func TestPrunedEngineEquivalence(t *testing.T) {
	const packets = 2
	seeds := int64(25)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(200); seed < 200+seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := randprog.Deterministic(rng, randprog.Options{})
		prune := analysis.DeadBlocks(prog)
		if len(prune) == 0 {
			continue
		}

		run := func(dead map[int]bool) (map[string]bool, bool) {
			e := sym.NewEngine(prog, sym.Options{Greybox: true, MaxPaths: 1 << 14, Dead: dead})
			paths := e.Initial()
			var err error
			for i := 0; i < packets; i++ {
				paths, err = e.Step(paths, i)
				if err != nil {
					return nil, false
				}
			}
			sigs := map[string]bool{}
			for _, p := range paths {
				if _, sat := solver.Solve(p.PC, e.Space, solver.SolveOptions{Seed: seed}); !sat {
					continue
				}
				sig := ""
				for id := 0; id < len(prog.Nodes()); id++ {
					sig += string(rune('a' + p.VisitCount(id)%26))
				}
				sigs[sig] = true
			}
			return sigs, true
		}

		base, ok1 := run(nil)
		pruned, ok2 := run(prune)
		if !ok1 || !ok2 {
			continue
		}
		for sig := range base {
			if !pruned[sig] {
				t.Fatalf("seed %d: feasible behavior lost under pruning\nprogram:\n%s",
					seed, prog.Format())
			}
		}
	}
}
