package sym

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/programs"
	"repro/internal/randprog"
	"repro/internal/solver"
)

// TestFeasiblePrefixInvariant checks the precondition solver.FeasibleFrom
// relies on: after every Step, each path's PC[:feasN] is Build-feasible.
// It also checks that a clone carries its parent's prefix and that a merged
// path, whose PC is dropped, starts over at 0. It runs every zoo program
// and a set of random programs, in greybox mode with merging and in
// baseline mode without.
func TestFeasiblePrefixInvariant(t *testing.T) {
	type named struct {
		name string
		prog *ir.Program
	}
	var progs []named
	for _, m := range programs.All() {
		progs = append(progs, named{m.Name, m.Build()})
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		progs = append(progs, named{fmt.Sprintf("randprog %d", seed),
			randprog.Deterministic(rng, randprog.Options{WithTables: seed%2 == 0})})
	}
	checked := 0
	for _, np := range progs {
		for _, greybox := range []bool{true, false} {
			e := NewEngine(np.prog, Options{Greybox: greybox, Merge: greybox, MaxPaths: 1000})
			counter := mc.NewCounter(e.Space, nil)
			paths := e.Initial()
			for pkt := 0; pkt < 3; pkt++ {
				next, err := e.Step(paths, pkt)
				if errors.Is(err, ErrBudget) {
					break
				}
				if err != nil {
					t.Fatalf("%s: %v", np.name, err)
				}
				paths = next
				for i, p := range paths {
					if p.feasN > len(p.PC) {
						t.Fatalf("%s greybox=%v pkt %d path %d: feasN %d > len(PC) %d",
							np.name, greybox, pkt, i, p.feasN, len(p.PC))
					}
					if !solver.Feasible(p.PC[:p.feasN], e.Space) {
						t.Fatalf("%s greybox=%v pkt %d path %d: PC[:%d] is infeasible: %v",
							np.name, greybox, pkt, i, p.feasN, p.PC[:p.feasN])
					}
					if q := p.Clone(); q.feasN != p.feasN {
						t.Fatalf("%s: clone has feasN %d, parent %d", np.name, q.feasN, p.feasN)
					}
					if p.feasN > 0 {
						checked++
					}
				}
				if !greybox {
					continue
				}
				paths = Merge(paths, counter)
				for i, p := range paths {
					if p.StateMergeable() && (p.PC != nil || p.feasN != 0) {
						t.Fatalf("%s pkt %d merged path %d: len(PC) %d, feasN %d; want 0 and 0",
							np.name, pkt, i, len(p.PC), p.feasN)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no path carried a known-feasible prefix")
	}
}
