package mc

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/prob"
	"repro/internal/solver"
)

// key128 is a 128-bit fingerprint of a sorted constraint conjunction or of
// one component. Two independent 64-bit FNV-style folds make accidental
// collisions negligible (a 64-bit key alone would risk silent cross-path
// cache corruption at the millions-of-queries scale of a full profiling run).
type key128 struct{ hi, lo uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// Second fold uses splitmix64-style odd multipliers so hi and lo are
	// independent functions of the same per-item hashes.
	mixMul64 = 0xbf58476d1ce4e5b9
)

func newKey() key128 { return key128{hi: fnvOffset64 ^ 0x9e3779b97f4a7c15, lo: fnvOffset64} }

// fold appends one item hash to the key, order-sensitively.
func (k *key128) fold(h uint64) {
	k.lo = (k.lo ^ h) * fnvPrime64
	k.hi = (k.hi + h) * mixMul64
	k.hi ^= k.hi >> 29
}

// cacheKey fingerprints a conjunction order-insensitively: each constraint
// hashes independently over its canonical fields (terms are already sorted
// by solver.LinExpr.canon), the per-constraint hashes are sorted as
// integers, then folded twice. Unlike the fmt/String-based key this used to
// be, it allocates only one small scratch slice (see BenchmarkCacheKey).
func cacheKey(cs []solver.Constraint) key128 {
	hs := make([]uint64, len(cs))
	for i := range cs {
		hs[i] = hashConstraint(&cs[i])
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	k := newKey()
	for _, h := range hs {
		k.fold(h)
	}
	return k
}

// componentKey fingerprints everything counting comp reads, in order: each
// root with its propagated interval, its members (variable and offset) and
// its holes, then the component's diffs, disequalities and generic
// residue. Nothing else of the system enters, so sibling paths that share
// a component share its key. The counter's seed, sample count, ForceMC,
// space and oracle are fixed for its lifetime, and the Monte-Carlo seed is
// derived from roots, diffs and generic residue, all keyed: two components
// with one key count to the same prob.P bits.
func componentKey(sys *solver.System, comp *component) key128 {
	k := newKey()
	for _, r := range comp.roots {
		h := hashVar(hashByte(fnvOffset64, 'r'), r)
		iv := sys.RootIv[r]
		h = hashU64(hashU64(h, iv.Lo), iv.Hi)
		ms := sys.Members[r]
		h = hashU64(h, uint64(len(ms)))
		for _, m := range ms {
			h = hashU64(hashVar(h, m.Var), uint64(m.Off))
		}
		for _, x := range sys.Holes[r] {
			h = hashU64(h, x)
		}
		k.fold(h)
	}
	for _, d := range comp.diffs {
		k.fold(hashRel('d', d.A, d.B, d.C))
	}
	for _, n := range comp.neqs {
		k.fold(hashRel('n', n.A, n.B, n.C))
	}
	for i := range comp.generic {
		k.fold(hashU64(hashByte(fnvOffset64, 'g'), hashConstraint(&comp.generic[i])))
	}
	return k
}

// hashRel hashes a diff or disequality over two roots under its kind tag.
func hashRel(tag byte, a, b solver.Var, c int64) uint64 {
	return hashU64(hashVar(hashVar(hashByte(fnvOffset64, tag), a), b), uint64(c))
}

// hashVar folds a variable's packet index and field name into h.
func hashVar(h uint64, v solver.Var) uint64 {
	h = hashU64(h, uint64(v.Pkt))
	for i := 0; i < len(v.Field); i++ {
		h = hashByte(h, v.Field[i])
	}
	return hashByte(h, 0xff) // field terminator
}

// hashConstraint is FNV-1a over the canonical bytes of one constraint:
// operator, constant, and each term's variable and coefficient. No
// formatting, no intermediate strings.
func hashConstraint(c *solver.Constraint) uint64 {
	h := uint64(fnvOffset64)
	h = hashByte(h, byte(c.Op))
	h = hashU64(h, uint64(c.E.K))
	for _, t := range c.E.Terms {
		h = hashU64(hashVar(h, t.Var), uint64(t.Coef))
	}
	return h
}

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func hashU64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(v))
		v >>= 8
	}
	return h
}

// numShards is the fan-out of the memo cache. 64 shards keeps per-shard
// mutex contention negligible for any realistic worker count while the
// whole shard array stays a few cache lines of header data.
const numShards = 64

// cacheEntry is a single-flight slot: the first goroutine to claim a key
// computes the probability and closes done; later goroutines wait on done
// and read p. The claim is made under the shard lock, the (expensive) count
// happens outside it.
type cacheEntry struct {
	done chan struct{}
	p    prob.P
}

type cacheShard struct {
	mu sync.Mutex
	m  map[key128]*cacheEntry
}

// shardedCache is the concurrency-safe memo cache behind Counter.ProbOf,
// used at two levels: one cache keyed on whole conjunctions, one on
// components. It is N-way sharded by key hash with per-shard mutexes and
// single-flight semantics, so two workers never redundantly count the same
// key: with the component level, no component is counted twice in a run.
type shardedCache struct {
	shards     [numShards]cacheShard
	contention atomic.Int64 // lock acquisitions that had to wait
	entries    atomic.Int64
}

func newShardedCache() *shardedCache {
	c := &shardedCache{}
	for i := range c.shards {
		c.shards[i].m = map[key128]*cacheEntry{}
	}
	return c
}

// lookupOrClaim returns the entry for key and whether it already existed.
// When existed is false the caller owns the entry: it must set p and close
// done exactly once (callers use publish). When existed is true the caller
// must wait on done before reading p.
func (sc *shardedCache) lookupOrClaim(key key128) (e *cacheEntry, existed bool) {
	s := &sc.shards[key.lo%numShards]
	if !s.mu.TryLock() {
		sc.contention.Add(1)
		s.mu.Lock()
	}
	e, existed = s.m[key]
	if !existed {
		e = &cacheEntry{done: make(chan struct{})}
		s.m[key] = e
		sc.entries.Add(1)
	}
	s.mu.Unlock()
	return e, existed
}

// publish completes a claimed entry, releasing every waiter.
func (sc *shardedCache) publish(e *cacheEntry, p prob.P) {
	e.p = p
	close(e.done)
}
