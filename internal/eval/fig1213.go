package eval

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Fig12Block is one profiled code block in the cross-system ranking.
type Fig12Block struct {
	System    string
	Label     string
	Rank      int // global rank by ascending probability
	Log10P    float64
	Expensive bool
}

// Fig12Result reproduces Figure 12: the correlation between a block's
// probability rank and whether it performs expensive processing.
type Fig12Result struct {
	Blocks []Fig12Block
	// ExpensiveInRarestHalf / ExpensiveInCommonHalf summarize the
	// correlation the paper's coloring shows.
	ExpensiveInRarestHalf int
	ExpensiveInCommonHalf int
}

func (r *Fig12Result) String() string {
	header := []string{"rank", "system", "block", "log10(P)", "expensive"}
	var rows [][]string
	limit := len(r.Blocks) / 2 // paper plots the rarest half
	for _, b := range r.Blocks[:limit] {
		rows = append(rows, []string{
			fmt.Sprintf("%d", b.Rank),
			b.System,
			b.Label,
			fmt.Sprintf("%.1f", b.Log10P),
			boolMark(b.Expensive),
		})
	}
	return fmt.Sprintf(
		"Figure 12: probability rank vs expensive processing (%d blocks; expensive: %d in rarest half vs %d in common half)\n",
		len(r.Blocks), r.ExpensiveInRarestHalf, r.ExpensiveInCommonHalf) +
		obs.Table(header, rows)
}

// Figure12 profiles S1–S11, pools all code blocks, ranks them by
// probability, and marks the expensive ones.
func Figure12(cfg Config) (*Fig12Result, error) {
	res := &Fig12Result{}
	for _, m := range S1toS11() {
		prog := m.Build()
		opt := cfg.profileOptions()
		opt.SampleBudget = 2000
		prof, err := core.ProbProf(prog, cfg.oracleFor(m), opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		expensive := prog.ExpensiveNodes()
		for _, n := range prof.Nodes {
			res.Blocks = append(res.Blocks, Fig12Block{
				System:    m.Name,
				Label:     n.Label,
				Log10P:    n.P.Log10(),
				Expensive: expensive[n.ID],
			})
		}
	}
	sort.SliceStable(res.Blocks, func(i, j int) bool {
		return res.Blocks[i].Log10P < res.Blocks[j].Log10P
	})
	for i := range res.Blocks {
		res.Blocks[i].Rank = i + 1
		if res.Blocks[i].Expensive {
			if i < len(res.Blocks)/2 {
				res.ExpensiveInRarestHalf++
			} else {
				res.ExpensiveInCommonHalf++
			}
		}
	}
	return res, nil
}

// Fig13Point is one block's rank across traffic profiles.
type Fig13Point struct {
	System   string
	Label    string
	BaseRank int
	// MaxRank is the rank in the other profiles that deviates the most.
	MaxRank int
}

// Fig13Result reproduces Figure 13: rank robustness across traffic epochs.
type Fig13Result struct {
	Points []Fig13Point
	// AvgMovement is the mean |MaxRank-BaseRank| over moved blocks
	// (the paper reports 3.23).
	AvgMovement float64
	// OnDiagonal counts blocks whose rank never moved.
	OnDiagonal int
}

func (r *Fig13Result) String() string {
	header := []string{"system", "block", "rank (2016)", "max rank (2018/2019)"}
	var rows [][]string
	for _, p := range r.Points {
		if p.BaseRank != p.MaxRank { // the off-diagonal dots
			rows = append(rows, []string{
				p.System, p.Label,
				fmt.Sprintf("%d", p.BaseRank),
				fmt.Sprintf("%d", p.MaxRank),
			})
		}
	}
	return fmt.Sprintf(
		"Figure 13: rank robustness across traffic profiles (%d blocks, %d on diagonal, avg movement %.2f)\n",
		len(r.Points), r.OnDiagonal, r.AvgMovement) +
		obs.Table(header, rows)
}

// Figure13 profiles every system under three CAIDA-like epochs (2016/2018/
// 2019 analogs; Poise and NetCache additionally vary their context/skew
// parameters via the epoch seed) and measures how much each block's
// probability ranking moves.
func Figure13(cfg Config) (*Fig13Result, error) {
	res := &Fig13Result{}
	years := []int{2016, 2018, 2019}
	for _, m := range S1toS11() {
		// Rankings per epoch.
		var ranks []map[string]int
		for _, y := range years {
			opts := trace.Epoch(y)
			// System-specific extras (context packets, key skews) follow
			// the system's own workload defaults, scaled by epoch.
			base := m.Workload(int64(y))
			opts.CtxRate = base.CtxRate
			opts.CtxTypes = base.CtxTypes
			opts.KeySpace = base.KeySpace
			opts.KeyZipfS = base.KeyZipfS + float64(y%3)*0.1
			opts.WriteRatio = base.WriteRatio
			opts.DupAckRate = base.DupAckRate
			opts.WideIPDRate = base.WideIPDRate
			oracle := trace.NewQueryProcessor(trace.Generate(opts))

			opt := cfg.profileOptions()
			opt.SampleBudget = 2000
			prof, err := core.ProbProf(m.Build(), oracle, opt)
			if err != nil {
				return nil, fmt.Errorf("%s (%d): %w", m.Name, y, err)
			}
			rk := map[string]int{}
			for i, n := range prof.Nodes {
				rk[fmt.Sprintf("%d:%s", n.ID, n.Label)] = i + 1
			}
			ranks = append(ranks, rk)
		}
		// Compare epoch 0 against the others.
		for key, base := range ranks[0] {
			maxRank := base
			for _, other := range ranks[1:] {
				if r2, ok := other[key]; ok {
					if abs(r2-base) > abs(maxRank-base) {
						maxRank = r2
					}
				}
			}
			res.Points = append(res.Points, Fig13Point{
				System: m.Name, Label: key, BaseRank: base, MaxRank: maxRank,
			})
		}
	}
	moved, sum := 0, 0
	for _, p := range res.Points {
		if p.BaseRank == p.MaxRank {
			res.OnDiagonal++
		} else {
			moved++
			sum += abs(p.MaxRank - p.BaseRank)
		}
	}
	if moved > 0 {
		res.AvgMovement = float64(sum) / float64(moved)
	}
	sort.SliceStable(res.Points, func(i, j int) bool {
		if res.Points[i].System != res.Points[j].System {
			return res.Points[i].System < res.Points[j].System
		}
		return res.Points[i].BaseRank < res.Points[j].BaseRank
	})
	return res, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
