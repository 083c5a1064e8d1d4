package mc

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/prob"
	"repro/internal/solver"
)

// workload builds a mix of constraint sets: single-field intervals, two-field
// conjunctions, and cross-packet equalities — enough distinct keys to spread
// over several cache shards, with every set queried by every goroutine so the
// single-flight path is exercised constantly.
func workload() [][]solver.Constraint {
	var out [][]solver.Constraint
	for k := int64(1); k <= 32; k++ {
		out = append(out, []solver.Constraint{
			con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.ConstExpr(k)),
		})
		out = append(out, []solver.Constraint{
			con(ir.CmpLe, solver.VarExpr(v(0, "b")), solver.ConstExpr(k)),
			con(ir.CmpGe, solver.VarExpr(v(0, "c")), solver.ConstExpr(k)),
		})
		out = append(out, []solver.Constraint{
			con(ir.CmpEq, solver.VarExpr(v(0, "w")), solver.VarExpr(v(1, "w"))),
			con(ir.CmpLt, solver.VarExpr(v(0, "a")), solver.ConstExpr(k)),
		})
	}
	return out
}

// TestCounterConcurrent hammers one Counter from 16 goroutines (run under
// -race in CI). Every goroutine queries the full workload, so all cache
// shards see concurrent lookups, claims, and waits; the results must match a
// sequential reference counter exactly and the stats must balance.
func TestCounterConcurrent(t *testing.T) {
	work := workload()

	ref := NewCounter(sp(), nil)
	want := make([]prob.P, len(work))
	for i, cs := range work {
		want[i] = ref.ProbOf(cs)
	}

	const goroutines = 16
	c := NewCounter(sp(), nil)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stagger the iteration order so goroutines collide on
			// different keys at different times.
			for j := range work {
				i := (j + g*7) % len(work)
				if got := c.ProbOf(work[i]); got.Cmp(want[i]) != 0 {
					errs <- "concurrent result differs from sequential reference"
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
	if st.Queries != goroutines*len(work) {
		t.Fatalf("queries = %d, want %d", st.Queries, goroutines*len(work))
	}
	// Single-flight: exactly one goroutine computes each distinct key; every
	// other query is a hit (possibly after waiting on the in-flight entry).
	if wantHits := st.Queries - len(work); st.CacheHits != wantHits {
		t.Fatalf("cache hits = %d, want %d", st.CacheHits, wantHits)
	}
}

// TestCacheKeyCanonical checks the two key properties ProbOf relies on:
// permutation invariance (conjunction order must not split cache entries)
// and sensitivity to every constraint field.
func TestCacheKeyCanonical(t *testing.T) {
	cs := []solver.Constraint{
		con(ir.CmpLe, solver.VarExpr(v(0, "a")), solver.ConstExpr(10)),
		con(ir.CmpEq, solver.VarExpr(v(0, "w")), solver.VarExpr(v(1, "w"))),
		con(ir.CmpGt, solver.VarExpr(v(2, "b")), solver.ConstExpr(3)),
	}
	perm := []solver.Constraint{cs[2], cs[0], cs[1]}
	if cacheKey(cs) != cacheKey(perm) {
		t.Fatal("cache key depends on constraint order")
	}
	if cacheKey(cs) == cacheKey(cs[:2]) {
		t.Fatal("subset conjunction collides")
	}
	mut := []solver.Constraint{cs[0], cs[1],
		con(ir.CmpGt, solver.VarExpr(v(2, "b")), solver.ConstExpr(4))}
	if cacheKey(cs) == cacheKey(mut) {
		t.Fatal("changed constant collides")
	}
	mutOp := []solver.Constraint{cs[0], cs[1],
		con(ir.CmpGe, solver.VarExpr(v(2, "b")), solver.ConstExpr(3))}
	if cacheKey(cs) == cacheKey(mutOp) {
		t.Fatal("changed operator collides")
	}
	for name, e := range map[string]solver.LinExpr{
		"coefficient": solver.VarExpr(v(2, "b")).Scale(2),
		"packet":      solver.VarExpr(v(3, "b")),
		"field":       solver.VarExpr(v(2, "c")),
	} {
		if cacheKey(cs) == cacheKey([]solver.Constraint{cs[0], cs[1], con(ir.CmpGt, e, solver.ConstExpr(3))}) {
			t.Fatalf("changed term %s collides", name)
		}
	}
}

// legacyCacheKey is the fmt/String-based key this package used before the
// FNV fingerprint, kept here as the benchmark baseline.
func legacyCacheKey(cs []solver.Constraint) string {
	ss := make([]string, len(cs))
	for i, c := range cs {
		ss[i] = c.String()
	}
	sort.Strings(ss)
	return strings.Join(ss, "&")
}

// benchConstraints is a representative conjunction: the size a merged
// greybox path typically carries into ProbOf.
func benchConstraints() []solver.Constraint {
	var cs []solver.Constraint
	for k := int64(0); k < 8; k++ {
		cs = append(cs,
			con(ir.CmpLe, solver.VarExpr(v(int(k), "a")), solver.ConstExpr(100+k)),
			con(ir.CmpEq, solver.VarExpr(v(int(k), "w")), solver.VarExpr(v(int(k)+1, "w"))))
	}
	return cs
}

func BenchmarkCacheKey(b *testing.B) {
	cs := benchConstraints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cacheKey(cs)
	}
}

func BenchmarkCacheKeyLegacy(b *testing.B) {
	cs := benchConstraints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = legacyCacheKey(cs)
	}
}
