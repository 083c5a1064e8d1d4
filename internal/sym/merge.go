package sym

import (
	"context"

	"repro/internal/mc"
	"repro/internal/par"
	"repro/internal/prob"
)

// PathProb computes a path's probability: the folded base, times the
// greybox factors, times the model-counted mass of the open path condition.
func PathProb(p *Path, counter *mc.Counter) prob.P {
	pr := p.Base.Mul(p.Grey)
	if len(p.PC) > 0 {
		pr = pr.Mul(counter.ProbOf(p.PC))
	}
	return pr
}

// pathProbs fans the per-path model-counting queries — the dominant cost of
// both merging and per-iteration probability updates — out across the pool,
// writing each result to its own slot. The reduction over the slots stays
// sequential in input order because prob.P addition is log-sum-exp and
// therefore not associative: only this split keeps parallel output
// bit-identical to sequential.
func pathProbs(ctx context.Context, paths []*Path, counter *mc.Counter, pool *par.Pool) ([]prob.P, error) {
	prs := make([]prob.P, len(paths))
	err := pool.Run(ctx, len(paths), func(i int) error {
		prs[i] = PathProb(paths[i], counter)
		return nil
	})
	return prs, err
}

// Merge coalesces paths whose persistent state is fully concrete and
// identical: their open path conditions are folded into the Base
// probability (via the model counter) and dropped. Future behaviour of a
// merged path depends only on its state, so this is exact for profiling.
// Paths carrying symbolic register state (cross-packet constraints) are
// passed through unmerged.
//
// Merged paths lose per-path action/havoc logs (profiling does not need
// them); test generation runs the engine unmerged.
func Merge(paths []*Path, counter *mc.Counter) []*Path {
	out, _ := MergePool(context.Background(), paths, counter, nil)
	return out
}

// MergePool is Merge with cancellation and with the model-counting queries
// fanned out across the pool (nil runs inline). Merging model-counts every
// mergeable path's open condition, which on a path-explosion iteration is
// where a profiling deadline would otherwise overshoot; on cancellation it
// returns the input paths unmerged together with the context error. The
// grouping fold itself is sequential in input order, so the merged path set
// is identical for every worker count.
func MergePool(ctx context.Context, paths []*Path, counter *mc.Counter, pool *par.Pool) ([]*Path, error) {
	// Only mergeable paths get counted (non-mergeable ones pass through with
	// their PC intact), so the mergeability scan runs first.
	mergeable := make([]*Path, 0, len(paths))
	for _, p := range paths {
		if p.StateMergeable() {
			mergeable = append(mergeable, p)
		}
	}
	prs, err := pathProbs(ctx, mergeable, counter, pool)
	if err != nil {
		return paths, err
	}
	groups := map[string]*Path{}
	var order []string
	var out []*Path
	mi := 0
	for _, p := range paths {
		if !p.StateMergeable() {
			out = append(out, p)
			continue
		}
		key := p.StateKey()
		pr := prs[mi]
		mi++
		if g, ok := groups[key]; ok {
			g.Base = g.Base.Add(pr)
			continue
		}
		q := p
		q.Base = pr
		q.Grey = prob.One()
		q.PC = nil
		q.feasN = 0
		q.Actions = nil
		q.Havocs = nil
		groups[key] = q
		order = append(order, key)
	}
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out, nil
}

// NodeProbs sums path probabilities per CFG node visited during the paths'
// current packet: Pr_t[N] = Σ_{p visits N} Pr[p].
func NodeProbs(paths []*Path, counter *mc.Counter, numNodes int) []prob.P {
	out, _ := NodeProbsPool(context.Background(), paths, counter, numNodes, nil)
	return out
}

// NodeProbsPool is NodeProbs with cancellation and with the model-counting
// queries fanned out across the pool (nil runs inline). Like merging, the
// per-iteration probability update model-counts every live path and is a
// deadline-overshoot hotspot. On cancellation the partial sums are returned
// along with the context error; callers must discard them. The per-node
// accumulation stays sequential in path order for bit-identical sums.
func NodeProbsPool(ctx context.Context, paths []*Path, counter *mc.Counter, numNodes int, pool *par.Pool) ([]prob.P, error) {
	out := make([]prob.P, numNodes)
	for i := range out {
		out[i] = prob.Zero()
	}
	prs, err := pathProbs(ctx, paths, counter, pool)
	if err != nil {
		return out, err
	}
	for i, p := range paths {
		pr := prs[i]
		if pr.IsZero() {
			continue
		}
		p.eachVisit(func(id int) {
			if id < numNodes {
				out[id] = out[id].Add(pr)
			}
		})
	}
	return out, nil
}
