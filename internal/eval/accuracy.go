package eval

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/programs"
)

// AccuracyRow is one shrunk program's P4wn-vs-ex comparison.
type AccuracyRow struct {
	Name string
	// Gamma is the worst-case relative inaccuracy
	// max_N |p̂(N)-p(N)| / p(N) over blocks with p > 0 (paper: ≤ 0.04).
	Gamma float64
	// Blocks compared.
	Blocks int
	// ExTimedOut indicates the ground-truth baseline did not finish.
	ExTimedOut bool
}

// AccuracyResult reproduces the §5.2 accuracy study: P4wn's estimates
// against the exhaustive `ex` baseline on shrunk program versions.
type AccuracyResult struct{ Rows []AccuracyRow }

func (r *AccuracyResult) String() string {
	header := []string{"program", "blocks", "gamma (rel. err)", "ex status"}
	var rows [][]string
	for _, row := range r.Rows {
		status := "ok"
		if row.ExTimedOut {
			status = "timeout"
		}
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%d", row.Blocks),
			fmt.Sprintf("%.4f", row.Gamma),
			status,
		})
	}
	return "§5.2 accuracy: P4wn vs exhaustive ex baseline (shrunk programs)\n" +
		obs.Table(header, rows)
}

// AccuracyVsExhaustive compares P4wn's per-packet profile after `packets`
// symbolic packets against the ex baseline's exhaustive enumeration on
// shrunk programs (e.g. a 4-retransmission Blink stand-in).
func AccuracyVsExhaustive(cfg Config) (*AccuracyResult, error) {
	shrunk := []struct {
		name    string
		prog    func() *ir.Program
		packets int
	}{
		{"counter-4", func() *ir.Program { return programs.Counter(4) }, 6},
		{"htable-small", func() *ir.Program { return programs.HTable(64, 4) }, 5},
		{"bfilter-small", func() *ir.Program { return programs.BFilter(256, 4) }, 5},
		{"cmsketch-small", func() *ir.Program { return programs.CMSketch(64, 4) }, 5},
	}
	res := &AccuracyResult{}
	for _, s := range shrunk {
		truth, ok := baseline.ExProfile(s.prog(), nil, s.packets, cfg.BaselineBudget*4)
		if !ok {
			res.Rows = append(res.Rows, AccuracyRow{Name: s.name, ExTimedOut: true})
			continue
		}
		prog := s.prog()
		opt := cfg.profileOptions()
		opt.MaxIters = s.packets
		opt.DisableSampling = true
		opt.Epsilon = 1e-12 // run all packets; don't converge early
		prof, err := core.ProbProf(prog, nil, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		row := AccuracyRow{Name: s.name}
		for id, p := range truth {
			if p.IsZero() {
				continue
			}
			est, found := prof.ByID(id)
			if !found {
				continue
			}
			row.Blocks++
			rel := math.Abs(est.P.Float()-p.Float()) / p.Float()
			// Telescoped estimates use a different (asymptotic) semantics;
			// compare only blocks both engines measured directly.
			if est.Source == core.SrcSymbex && rel > row.Gamma {
				row.Gamma = rel
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
