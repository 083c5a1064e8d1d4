package mc

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/prob"
	"repro/internal/solver"
)

// keyFixture is a three-root component with every keyed input present: a
// two-member class with an offset and a hole, a diff, a disequality and
// generic residue. Each call builds fresh slices and maps, so a mutation
// touches one fixture only.
func keyFixture() (*solver.System, component) {
	a, a1, b, c := v(0, "a"), v(1, "a"), v(0, "b"), v(0, "c")
	sys := &solver.System{
		Roots:    []solver.Var{a, b, c},
		RootIv:   map[solver.Var]solver.Interval{a: {Lo: 2, Hi: 200}, b: {Lo: 0, Hi: 255}, c: {Lo: 1, Hi: 9}},
		Members:  map[solver.Var][]solver.Member{a: {{Var: a}, {Var: a1, Off: 3}}, b: {{Var: b}}, c: {{Var: c}}},
		Holes:    map[solver.Var][]uint64{a: {7}, b: {4, 5}},
		Diffs:    []solver.Diff{{A: a, B: b, C: 10}},
		Neqs:     []solver.Neq{{A: b, B: c, C: 1}},
		Generic:  []solver.Constraint{con(ir.CmpLe, solver.VarExpr(a).Add(solver.VarExpr(c)), solver.ConstExpr(50))},
		Feasible: true,
	}
	comp := component{
		roots:   append([]solver.Var(nil), sys.Roots...),
		diffs:   append([]solver.Diff(nil), sys.Diffs...),
		neqs:    append([]solver.Neq(nil), sys.Neqs...),
		generic: append([]solver.Constraint(nil), sys.Generic...),
	}
	return sys, comp
}

// TestComponentKeySeparates checks that the component key covers every
// input a count reads: changing any one of them must change the key, and
// anything outside the component must not.
func TestComponentKeySeparates(t *testing.T) {
	sys, comp := keyFixture()
	base := componentKey(sys, &comp)
	if s, c := keyFixture(); componentKey(s, &c) != base {
		t.Fatal("equal components give different keys")
	}
	b1 := v(1, "b")
	mutations := []struct {
		name string
		mut  func(*solver.System, *component)
	}{
		{"RootIv lower bound", func(s *solver.System, _ *component) { s.RootIv[v(0, "a")] = solver.Interval{Lo: 3, Hi: 200} }},
		{"RootIv upper bound", func(s *solver.System, _ *component) { s.RootIv[v(0, "c")] = solver.Interval{Lo: 1, Hi: 10} }},
		{"member offset", func(s *solver.System, _ *component) { s.Members[v(0, "a")][1].Off = 4 }},
		{"member packet", func(s *solver.System, _ *component) { s.Members[v(0, "a")][1].Var = v(2, "a") }},
		{"member field", func(s *solver.System, _ *component) { s.Members[v(0, "a")][1].Var = v(1, "w") }},
		{"member added", func(s *solver.System, _ *component) {
			s.Members[v(0, "c")] = append(s.Members[v(0, "c")], solver.Member{Var: v(1, "c"), Off: 0})
		}},
		{"hole value", func(s *solver.System, _ *component) { s.Holes[v(0, "a")] = []uint64{8} }},
		{"hole added", func(s *solver.System, _ *component) { s.Holes[v(0, "c")] = []uint64{3} }},
		{"hole moved to another root", func(s *solver.System, _ *component) {
			s.Holes[v(0, "a")], s.Holes[v(0, "c")] = nil, []uint64{7}
		}},
		{"diff constant", func(_ *solver.System, c *component) { c.diffs[0].C = 11 }},
		{"diff direction", func(_ *solver.System, c *component) { c.diffs[0].A, c.diffs[0].B = c.diffs[0].B, c.diffs[0].A }},
		{"disequality constant", func(_ *solver.System, c *component) { c.neqs[0].C = 2 }},
		{"diff read as disequality", func(_ *solver.System, c *component) {
			c.neqs = append([]solver.Neq{solver.Neq(c.diffs[0])}, c.neqs...)
			c.diffs = nil
		}},
		{"generic K", func(_ *solver.System, c *component) {
			c.generic[0] = con(ir.CmpLe, solver.VarExpr(v(0, "a")).Add(solver.VarExpr(v(0, "c"))), solver.ConstExpr(51))
		}},
		{"generic operator", func(_ *solver.System, c *component) {
			c.generic[0] = con(ir.CmpLt, solver.VarExpr(v(0, "a")).Add(solver.VarExpr(v(0, "c"))), solver.ConstExpr(50))
		}},
		{"root order", func(_ *solver.System, c *component) { c.roots[0], c.roots[1] = c.roots[1], c.roots[0] }},
		{"root packet index", func(s *solver.System, c *component) {
			b := v(0, "b")
			s.RootIv[b1], s.Members[b1], s.Holes[b1] = s.RootIv[b], []solver.Member{{Var: b1}}, s.Holes[b]
			c.roots[1] = b1
			c.diffs[0].B = b1
			c.neqs[0].A = b1
		}},
	}
	for _, m := range mutations {
		s, c := keyFixture()
		m.mut(s, &c)
		if componentKey(s, &c) == base {
			t.Errorf("%s: key unchanged", m.name)
		}
	}

	// What lies outside the component does not enter its key.
	s, c := keyFixture()
	d := v(0, "w")
	s.Roots = append(s.Roots, d)
	s.RootIv[d] = solver.Interval{Lo: 5, Hi: 6}
	s.Members[d] = []solver.Member{{Var: d}}
	s.Holes[d] = []uint64{5}
	if componentKey(s, &c) != base {
		t.Error("a root outside the component changed its key")
	}
}

// memoWorkload pairs each of four three-root disequality chains over a, b
// and c (Monte-Carlo components) with each of eight bounds on w (exact
// single classes): 32 distinct conjunctions over 12 distinct components.
func memoWorkload() (work [][]solver.Constraint, mcComps, classComps int) {
	a, b, c, w := solver.VarExpr(v(0, "a")), solver.VarExpr(v(0, "b")), solver.VarExpr(v(0, "c")), solver.VarExpr(v(0, "w"))
	for k := int64(0); k < 4; k++ {
		for j := int64(1); j <= 8; j++ {
			work = append(work, []solver.Constraint{
				con(ir.CmpNe, a, b.Add(solver.ConstExpr(k))),
				con(ir.CmpNe, b, c),
				con(ir.CmpLe, w, solver.ConstExpr(1000*j)),
			})
		}
	}
	return work, 4, 8
}

// TestComponentMemoConcurrent counts conjunctions that share components
// from 8 goroutines (run under -race in CI). Every result must equal an
// uncached serial count bit for bit, and single-flight must hold at the
// component level: each distinct component is counted exactly once.
func TestComponentMemoConcurrent(t *testing.T) {
	work, mcComps, classComps := memoWorkload()
	ref := NewCounter(sp(), nil)
	ref.DisableCache = true
	want := make([]prob.P, len(work))
	for i, cs := range work {
		want[i] = ref.ProbOf(cs)
	}
	if st := ref.Stats(); st.MCFallbacks != len(work) || st.ComponentHits != 0 {
		t.Fatalf("uncached counter: %d MC counts, %d component hits; want %d and 0", st.MCFallbacks, st.ComponentHits, len(work))
	}

	const goroutines = 8
	c := NewCounter(sp(), nil)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range work {
				i := (j + g*5) % len(work)
				if got := c.ProbOf(work[i]); got != want[i] {
					errs <- fmt.Sprintf("%v: memoized %v, uncached %v", work[i], got.Float(), want[i].Float())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := c.Stats()
	if st.MCFallbacks != mcComps || st.ExactClasses != classComps {
		t.Fatalf("%d MC and %d exact-class counts, want %d and %d (one per distinct component)",
			st.MCFallbacks, st.ExactClasses, mcComps, classComps)
	}
	// The conjunction level lets each of the 32 systems through once; each
	// splits into two components, 12 of them distinct.
	if wantHits := 2*len(work) - mcComps - classComps; st.ComponentHits != wantHits {
		t.Fatalf("component hits = %d, want %d", st.ComponentHits, wantHits)
	}
	if got := c.CacheMetrics()["cache_component_entries"]; got != float64(mcComps+classComps) {
		t.Fatalf("resident component entries = %v, want %d", got, mcComps+classComps)
	}
}

// memoFields are the fields decodeMemoConjs draws from: six skewed 5-bit
// fields, a 4-bit field s with a pair-equality answer, and a uniform
// 6-bit field q that only the per-conjunction private bound reads.
var memoFields = []string{"f0", "f1", "f2", "f3", "f4", "f5"}

func memoSpace() (*solver.Space, dist.Oracle) {
	fields := []ir.Field{{Name: "s", Bits: 4}, {Name: "q", Bits: 6}}
	oracle := dist.NewProfile()
	for i, name := range memoFields {
		fields = append(fields, ir.Field{Name: name, Bits: 5})
		oracle.SetField(name, dist.MustFromPieces([]dist.Piece{
			{Lo: 0, Hi: uint64(i), Mass: 1},
			{Lo: uint64(i) + 1, Hi: 20, Mass: 3 + float64(i)},
			{Lo: 21, Hi: 31, Mass: 0.5},
		}))
	}
	oracle.SetField("s", dist.MustFromPieces([]dist.Piece{{Lo: 0, Hi: 3, Mass: 2}, {Lo: 4, Hi: 15, Mass: 1}}))
	oracle.SetPairEq("s", 0.3)
	return solver.NewSpace(fields), oracle
}

// decodeMemoConjs turns fuzz bytes into a pool of 1–4 constraint groups
// and 2–4 conjunctions over them. Each group is one kind of component: a
// single class with holes (and maybe a member at an offset), a pair joined
// by a disequality (and maybe a diff), a cross-packet class that takes the
// oracle's pair-equality path, a 3–5-root disequality chain (maybe closed
// into a cycle, maybe with a diff), or a two-field generic sum. A
// conjunction is the union of the groups its mask selects plus, when its
// private byte is odd, a bound on q that no group reads. Groups that
// happen to share a field merge into one larger component. The last byte
// seeds Monte Carlo.
func decodeMemoConjs(data []byte) (groups [][]solver.Constraint, conjs [][]solver.Constraint, seed int64) {
	pos := 0
	next := func() int {
		b := 0
		if pos < len(data) {
			b = int(data[pos])
		}
		pos++
		return b
	}
	f := func(i int) solver.LinExpr { return solver.VarExpr(v(0, memoFields[i%len(memoFields)])) }
	k := func(x int) solver.LinExpr { return solver.ConstExpr(int64(x)) }
	for n := 1 + next()%4; n > 0; n-- {
		kind, p1, p2, p3, p4 := next()%5, next(), next(), next(), next()
		var g []solver.Constraint
		switch kind {
		case 0: // single class with two holes, maybe a second member at an offset
			x := f(p1)
			g = append(g, con(ir.CmpLe, x, k(8+p2%24)), con(ir.CmpNe, x, k(p3%32)), con(ir.CmpNe, x, k(p4%32)))
			if off := p4 >> 5; off != 0 {
				g = append(g, con(ir.CmpEq, f(p1+1), x.Add(k(off-1))))
			}
		case 1: // pair joined by a disequality, maybe a diff
			x, y := f(p1), f(p1+1+p2%5)
			g = append(g, con(ir.CmpNe, x, y.Add(k(p3%9-4))))
			if p4&1 != 0 {
				g = append(g, con(ir.CmpLe, x, y.Add(k(p4/2%9-4))))
			}
		case 2: // cross-packet equality on s: the pair-equality path
			pkt := p1 % 3
			s0, s1 := solver.VarExpr(v(pkt, "s")), solver.VarExpr(v(pkt+1, "s"))
			g = append(g, con(ir.CmpEq, s0, s1), con(ir.CmpLe, s1, k(4+p2%12)))
			if p3&1 != 0 {
				g = append(g, con(ir.CmpNe, s0, k(p4%16)))
			}
		case 3: // 3–5-root disequality chain: Monte Carlo
			m, start := 3+p1%3, p2%len(memoFields)
			for i := 0; i+1 < m; i++ {
				g = append(g, con(ir.CmpNe, f(start+i), f(start+i+1).Add(k((p3>>(2*i))&3-1))))
			}
			if p4&1 != 0 {
				g = append(g, con(ir.CmpNe, f(start), f(start+m-1)))
			}
			if p4&2 != 0 {
				g = append(g, con(ir.CmpLe, f(start), f(start+1).Add(k(3))))
			}
		default: // generic residue: Monte Carlo
			g = append(g, con(ir.CmpLe, f(p1).Add(f(p1+1)), k(p2%64)))
		}
		groups = append(groups, g)
	}
	q := solver.VarExpr(v(0, "q"))
	for n := 2 + next()%3; n > 0; n-- {
		mask, private := next(), next()
		var cs []solver.Constraint
		for i, g := range groups {
			if mask&(1<<i) != 0 {
				cs = append(cs, g...)
			}
		}
		if private&1 != 0 {
			cs = append(cs, con(ir.CmpLe, q, k(private/2%64)))
		}
		conjs = append(conjs, cs)
	}
	return groups, conjs, int64(next())
}

// permutations calls visit with every ordering of 0..n-1.
func permutations(n int, visit func([]int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(int)
	rec = func(i int) {
		if i == n {
			visit(perm)
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
}

// FuzzComponentMemoMatchesUncached checks that memoizing components never
// changes an answer: over conjunctions that share components, a caching
// counter's ProbOf must equal a DisableCache counter's, bit for bit, in
// every query order.
func FuzzComponentMemoMatchesUncached(f *testing.F) {
	// Layout: groups, then per group kind and four parameters; then
	// conjunctions, then per conjunction a group mask and a private byte;
	// then the Monte-Carlo seed.
	f.Add([]byte{0, 0, 1, 5, 3, 7, 0, 1, 0, 1, 3, 1})                             // a single class with holes
	f.Add([]byte{1, 0, 1, 5, 3, 0x47, 0, 1, 5, 3, 0x67, 0, 1, 0, 2, 0, 3})        // two-member classes differing only in the offset
	f.Add([]byte{0, 1, 0, 1, 2, 3, 0, 1, 0, 1, 5, 2})                             // a pair with a disequality and a diff
	f.Add([]byte{0, 2, 0, 3, 1, 4, 0, 1, 0, 1, 7, 3})                             // a class on the pair-equality path, with a hole
	f.Add([]byte{0, 3, 2, 1, 0x5a, 3, 0, 1, 0, 1, 9, 4})                          // a 5-root MC cycle with a diff
	f.Add([]byte{1, 3, 0, 0, 0x33, 0, 0, 4, 0, 0, 3, 0, 3, 0, 3, 11, 5})          // two conjunctions differing only outside the shared component
	f.Add([]byte{3, 0, 2, 9, 4, 6, 1, 3, 3, 5, 1, 2, 1, 1, 0, 1, 4, 20, 7, 2, 15, // four groups
		2, 7, 0, 5, 1, 12, 9, 14, 4, 6}) // four conjunctions
	f.Fuzz(func(t *testing.T, data []byte) {
		_, conjs, seed := decodeMemoConjs(data)
		space, oracle := memoSpace()
		counter := func(disable bool) *Counter {
			c := NewCounter(space, oracle)
			c.MCSamples = 200
			c.Seed = seed
			c.DisableCache = disable
			return c
		}
		ref := counter(true)
		want := make([]prob.P, len(conjs))
		for i, cs := range conjs {
			want[i] = ref.ProbOf(cs)
		}
		permutations(len(conjs), func(order []int) {
			c := counter(false)
			for _, i := range order {
				if got := c.ProbOf(conjs[i]); got != want[i] {
					t.Fatalf("order %v: %v: memoized %v, uncached %v", order, conjs[i], got.Float(), want[i].Float())
				}
			}
		})
	})
}
