package sym

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/programs"
	"repro/internal/randprog"
)

// stepDigest renders what a Step hands to its caller, one line per path:
// the path condition, the visit counts and the havoc variable names.
func stepDigest(paths []*Path) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		var b strings.Builder
		for _, c := range p.PC {
			b.WriteString(c.String())
			b.WriteByte(';')
		}
		b.WriteString(" |")
		for _, id := range p.VisitedNodes() {
			fmt.Fprintf(&b, " %d:%d", id, p.VisitCount(id))
		}
		b.WriteString(" |")
		for _, h := range p.Havocs {
			b.WriteString(" " + h.Var.Field)
		}
		out[i] = b.String()
	}
	return out
}

// TestBudgetTripMatchesStatementCheck runs every zoo program and a set of
// random programs twice per configuration: once with execBlock's per-path
// budget check and once with the reference that checks only after each
// statement. Every step must end the same way: both ErrBudget, or both
// the same paths and the same Stats.
func TestBudgetTripMatchesStatementCheck(t *testing.T) {
	type named struct {
		name string
		prog *ir.Program
	}
	var progs []named
	for _, m := range programs.All() {
		progs = append(progs, named{m.Name, m.Build()})
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		progs = append(progs, named{fmt.Sprintf("randprog %d", seed),
			randprog.Deterministic(rng, randprog.Options{WithTables: seed%2 == 0})})
	}
	budgets := []int{4, 60, 600}
	if testing.Short() {
		budgets = budgets[:2]
	}
	trips, fits := 0, 0
	for _, np := range progs {
		for _, maxPaths := range budgets {
			for _, workers := range []int{1, 2} {
				for _, greybox := range []bool{true, false} {
					opts := Options{Greybox: greybox, Merge: greybox, MaxPaths: maxPaths, Workers: workers}
					early := NewEngine(np.prog, opts)
					ref := NewEngine(np.prog, opts)
					ref.tripAfterStmt = true
					counter := mc.NewCounter(early.Space, nil)
					refCounter := mc.NewCounter(ref.Space, nil)
					ep, rp := early.Initial(), ref.Initial()
					for pkt := 0; pkt < 3; pkt++ {
						where := fmt.Sprintf("%s MaxPaths %d workers %d greybox %v pkt %d",
							np.name, maxPaths, workers, greybox, pkt)
						enext, eerr := early.Step(ep, pkt)
						rnext, rerr := ref.Step(rp, pkt)
						if !errors.Is(eerr, rerr) {
							t.Fatalf("%s: error %v, reference %v", where, eerr, rerr)
						}
						if eerr != nil {
							if !errors.Is(eerr, ErrBudget) {
								t.Fatalf("%s: %v", where, eerr)
							}
							// On two workers the tasks a trip skips depend on
							// the schedule, so only one worker orders the work.
							if workers == 1 && early.Stats.Forks > ref.Stats.Forks {
								t.Fatalf("%s: tripped step forked %d times, reference %d",
									where, early.Stats.Forks, ref.Stats.Forks)
							}
							trips++
							break
						}
						fits++
						if got, want := stepDigest(enext), stepDigest(rnext); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: paths differ from the reference\n got %q\nwant %q", where, got, want)
						}
						if early.Stats != ref.Stats {
							t.Fatalf("%s: stats %+v, reference %+v", where, early.Stats, ref.Stats)
						}
						ep, rp = enext, rnext
						if greybox {
							ep, rp = Merge(ep, counter), Merge(rp, refCounter)
						}
					}
				}
			}
		}
	}
	if trips == 0 || fits == 0 {
		t.Fatalf("trips %d, fitting steps %d: both outcomes must be exercised", trips, fits)
	}
}

// TestSwitchFirstStepTripsEarly pins the work the early trip saves on
// profile_wide's switch.p4 step: at a 30000-path budget the step fails
// either way, and the per-path check stops it with fewer forks.
func TestSwitchFirstStepTripsEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("forks switch.p4 to its 30000-path budget")
	}
	prog := programs.SwitchP4()
	forks := make([]int, 2)
	for i, after := range []bool{false, true} {
		e := NewEngine(prog, Options{Greybox: true, Merge: true, MaxPaths: 30000, Workers: 1})
		e.tripAfterStmt = after
		if _, err := e.Step(e.Initial(), 0); !errors.Is(err, ErrBudget) {
			t.Fatalf("tripAfterStmt %v: err %v, want ErrBudget", after, err)
		}
		forks[i] = e.Stats.Forks
	}
	if forks[0] >= forks[1] {
		t.Fatalf("early trip forked %d times, statement check %d: want fewer", forks[0], forks[1])
	}
	t.Logf("forks: early trip %d, statement check %d", forks[0], forks[1])
}
