package trace

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
)

// QueryProcessor answers P4wn's interactive traffic-composition queries
// against a pinned in-memory trace, mirroring the paper's query processor:
// the trace is loaded once, and query results are cached and reused.
//
// It implements dist.Oracle. Marginal distributions are estimated from the
// empirical histogram; pair-equality queries (e.g. "how often does a flow
// repeat a seq?") are answered from within-flow adjacent packet pairs,
// which is exactly the correlation retransmission-style constraints need.
//
// All methods are safe for concurrent use: parallel model-counting and
// sampling workers hit the oracle simultaneously. The mutex guards only the
// two caches' maps; each field's entry computes its answer once, outside
// the mutex, so scans of different fields run in parallel and a second
// query for a field being scanned waits for that scan instead of repeating
// it. Absent answers (a field the trace lacks) are cached like any other.
type QueryProcessor struct {
	tr *Trace

	mu        sync.Mutex
	distCache map[string]*answer[dist.Dist]
	pairCache map[string]*answer[float64]
	queries   atomic.Int64
	scans     atomic.Int64
}

// answer is one cached query result, computed at most once.
type answer[T any] struct {
	once sync.Once
	v    T
	ok   bool
}

// NewQueryProcessor pins a trace and prepares the cache.
func NewQueryProcessor(tr *Trace) *QueryProcessor {
	return &QueryProcessor{
		tr:        tr,
		distCache: map[string]*answer[dist.Dist]{},
		pairCache: map[string]*answer[float64]{},
	}
}

// QueryCount implements dist.Oracle.
func (q *QueryProcessor) QueryCount() int { return int(q.queries.Load()) }

// Scans reports how many full trace scans were performed (cache misses).
func (q *QueryProcessor) Scans() int { return int(q.scans.Load()) }

// cached counts a query and returns field's entry in cache, computing it
// with scan (one trace scan) if no earlier query did.
func cached[T any](q *QueryProcessor, cache map[string]*answer[T], field string, scan func(string) (T, bool)) (T, bool) {
	q.queries.Add(1)
	q.mu.Lock()
	a := cache[field]
	if a == nil {
		a = &answer[T]{}
		cache[field] = a
	}
	q.mu.Unlock()
	a.once.Do(func() {
		q.scans.Add(1)
		a.v, a.ok = scan(field)
	})
	return a.v, a.ok
}

// FieldDist implements dist.Oracle. Distributions for low-cardinality
// fields are exact (one point piece per value); high-cardinality fields are
// bucketed into up to 64 quantile ranges.
func (q *QueryProcessor) FieldDist(field string) (dist.Dist, bool) {
	return cached(q, q.distCache, field, q.fieldDist)
}

func (q *QueryProcessor) fieldDist(field string) (dist.Dist, bool) {
	vals, counts := q.tr.FieldValues(field)
	if len(vals) == 0 {
		return dist.Dist{}, false
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	var pieces []dist.Piece
	if len(vals) <= 64 {
		for i, v := range vals {
			pieces = append(pieces, dist.Piece{Lo: v, Hi: v, Mass: float64(counts[i]) / float64(total)})
		}
	} else {
		// Quantile buckets: ~equal sample mass per bucket, uniform inside.
		perBucket := (total + 63) / 64
		i := 0
		for i < len(vals) {
			lo := vals[i]
			mass := 0
			j := i
			for j < len(vals) && mass < perBucket {
				mass += counts[j]
				j++
			}
			hi := vals[j-1]
			pieces = append(pieces, dist.Piece{Lo: lo, Hi: hi, Mass: float64(mass) / float64(total)})
			i = j
		}
	}
	d, err := dist.FromPieces(pieces)
	if err != nil {
		return dist.Dist{}, false
	}
	return d, true
}

// FieldDistNoCache recomputes a marginal bypassing the cache (for the
// query-cache ablation).
func (q *QueryProcessor) FieldDistNoCache(field string) (dist.Dist, bool) {
	q.mu.Lock()
	delete(q.distCache, field)
	q.mu.Unlock()
	return q.FieldDist(field)
}

// PairEqualProb implements dist.Oracle: the fraction of within-flow
// adjacent packet pairs whose field values coincide. For "seq" this is the
// retransmission ratio; for IPD-like fields it measures timing regularity.
func (q *QueryProcessor) PairEqualProb(field string) (float64, bool) {
	return cached(q, q.pairCache, field, q.pairEqualProb)
}

func (q *QueryProcessor) pairEqualProb(field string) (float64, bool) {
	get := SetterFor(field)
	last := map[FlowKey]uint64{}
	pairs, equal := 0, 0
	for i := range q.tr.Packets {
		p := &q.tr.Packets[i]
		v, ok := get.get(p)
		if !ok {
			continue
		}
		id := p.Flow()
		if prev, seen := last[id]; seen {
			pairs++
			if prev == v {
				equal++
			}
		}
		last[id] = v
	}
	if pairs == 0 {
		return 0, false
	}
	return float64(equal) / float64(pairs), true
}

// RatioWhere returns the fraction of packets for which pred holds — the
// general-purpose query form ("what fraction of traffic is TCP SYN?").
func (q *QueryProcessor) RatioWhere(pred func(*Packet) bool) float64 {
	q.queries.Add(1)
	q.scans.Add(1)
	if len(q.tr.Packets) == 0 {
		return 0
	}
	n := 0
	for i := range q.tr.Packets {
		if pred(&q.tr.Packets[i]) {
			n++
		}
	}
	return float64(n) / float64(len(q.tr.Packets))
}

// TopValues returns the k most frequent values of a field, most frequent
// first (used to pick NetCache hot keys and similar workload facts).
func (q *QueryProcessor) TopValues(field string, k int) []uint64 {
	q.queries.Add(1)
	q.scans.Add(1)
	vals, counts := q.tr.FieldValues(field)
	type vc struct {
		v uint64
		c int
	}
	vcs := make([]vc, len(vals))
	for i := range vals {
		vcs[i] = vc{vals[i], counts[i]}
	}
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].c != vcs[j].c {
			return vcs[i].c > vcs[j].c
		}
		return vcs[i].v < vcs[j].v
	})
	if k > len(vcs) {
		k = len(vcs)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = vcs[i].v
	}
	return out
}
