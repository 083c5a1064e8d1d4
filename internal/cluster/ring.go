// Package cluster shards the p4wnd profiling service from one box to a
// fleet: a coordinator fronts N worker daemons, routes each submission to
// a shard by consistent hashing on the job's content address, forwards
// cache hits between nodes, steals work from overloaded shards onto idle
// ones, and follows each job's event stream on its shard to completion.
// The coordinator is a serve.Server with a ring-dispatch Runner, so it
// serves the same /v1 job API as a single daemon — per-tenant quotas and
// weighted-fair dispatch included — and `p4wn submit|status|result|cancel`
// work against it unchanged.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringReplicas is the virtual-node count per worker. 64 points per
// node keeps the maximum/minimum keyspace share within ~2x for small
// fleets, which is plenty for a cache-affinity router (imbalance costs a
// recompute, never correctness).
const ringReplicas = 64

// ring is a consistent-hash ring over worker addresses. Hashing is FNV-64a
// of "addr#replica", so every process — coordinator or test harness —
// derives the identical ring from the same worker list, and a key's owner
// is stable across restarts.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // distinct, sorted
}

type ringPoint struct {
	hash uint64
	node string
}

func newRing(nodes []string, replicas int) *ring {
	seen := map[string]bool{}
	r := &ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hashString(n + "#" + strconv.Itoa(i)), n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// sequence returns every node in ring order starting from key's position:
// the first entry is the key's owner, the rest are its failover/steal
// candidates in deterministic preference order. Every node appears exactly
// once.
func (r *ring) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.nodes))
	seen := map[string]bool{}
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// owner returns the key's primary shard ("" on an empty ring).
func (r *ring) owner(key string) string {
	seq := r.sequence(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}
