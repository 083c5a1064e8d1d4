package eval

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
)

// Fig7Row compares model-counting and trace-query probability backends for
// one system.
type Fig7Row struct {
	Name string
	// End-to-end profiling time per backend.
	MCTotal    time.Duration
	TraceTotal time.Duration
	// Time inside UpdateProb (probability computation) per backend.
	MCUpdate    time.Duration
	TraceUpdate time.Duration
	// Query counts.
	TraceQueries int
}

// Fig7Result reproduces Figures 7a/7b.
type Fig7Result struct{ Rows []Fig7Row }

func (r *Fig7Result) String() string {
	header := []string{"system", "MC total (s)", "trace total (s)", "MC updateProb (s)", "trace updateProb (s)", "queries"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmtDur(row.MCTotal),
			fmtDur(row.TraceTotal),
			fmtDur(row.MCUpdate),
			fmtDur(row.TraceUpdate),
			fmt.Sprintf("%d", row.TraceQueries),
		})
	}
	return "Figure 7: model counting vs trace queries (a: end-to-end, b: updateProb)\n" +
		obs.Table(header, rows)
}

// Figure7 profiles S1–S11 twice: once against the model-counting backend
// (uniform header space — the LattE mode) and once against the
// trace-backed query processor.
func Figure7(cfg Config) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, m := range S1toS11() {
		opt := cfg.profileOptions()
		opt.SampleBudget = 2000

		startMC := time.Now()
		profMC, err := core.ProbProf(m.Build(), &dist.UniformOracle{}, opt)
		if err != nil {
			return nil, fmt.Errorf("%s (mc): %w", m.Name, err)
		}
		mcTotal := time.Since(startMC)

		oracle := cfg.oracleFor(m)
		startTr := time.Now()
		profTr, err := core.ProbProf(m.Build(), oracle, opt)
		if err != nil {
			return nil, fmt.Errorf("%s (trace): %w", m.Name, err)
		}
		trTotal := time.Since(startTr)

		res.Rows = append(res.Rows, Fig7Row{
			Name:         m.Name,
			MCTotal:      mcTotal,
			TraceTotal:   trTotal,
			MCUpdate:     profMC.Stats.UpdateProbTime,
			TraceUpdate:  profTr.Stats.UpdateProbTime,
			TraceQueries: profTr.Stats.OracleQueries,
		})
	}
	return res, nil
}
