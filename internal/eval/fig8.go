package eval

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prob"
	"repro/internal/programs"
)

// Fig8Point is one ps-baseline measurement.
type Fig8Point struct {
	Elapsed     time.Duration
	Samples     int
	Granularity float64 // the finest probability 1/samples can resolve
}

// Fig8Panel is one system of Figure 8.
type Fig8Panel struct {
	Name string
	// TargetLabel is the rare code block whose probability is estimated.
	TargetLabel string
	// P4wnEstimate is the telescoped estimate (log10) for the target.
	P4wnEstimate prob.P
	P4wnTime     time.Duration
	// Sampling is the ps baseline's granularity trajectory.
	Sampling []Fig8Point
}

// Fig8Result reproduces Figures 8a–8c.
type Fig8Result struct{ Panels []Fig8Panel }

func (r *Fig8Result) String() string {
	out := "Figure 8: sampling baseline (ps) granularity vs P4wn telescoped estimates\n"
	for _, p := range r.Panels {
		out += fmt.Sprintf("\n%s — target %q: P4wn estimate %s in %s\n",
			p.Name, p.TargetLabel, p.P4wnEstimate, p.P4wnTime.Round(time.Millisecond))
		header := []string{"elapsed (s)", "samples", "finest granularity"}
		var rows [][]string
		for _, pt := range p.Sampling {
			rows = append(rows, []string{
				fmtDur(pt.Elapsed),
				fmt.Sprintf("%d", pt.Samples),
				fmt.Sprintf("%.2e", pt.Granularity),
			})
		}
		out += obs.Table(header, rows)
	}
	return out
}

// fig8Targets maps the three systems to their rare expensive block.
var fig8Targets = map[int]string{
	5:  "reroute",
	6:  "overload_alarm",
	11: "dup_ack",
}

// Figure8 compares P4wn's telescoped estimates with the ps path-sampling
// baseline on Blink, NetCache, and NetWarden. Sampling improves its
// granularity with running time but stays orders of magnitude coarser than
// the telescoped estimates.
func Figure8(cfg Config) (*Fig8Result, error) {
	res := &Fig8Result{}
	for _, id := range []int{5, 6, 11} {
		m, _ := programs.SID(id)
		prog := m.Build()
		oracle := cfg.oracleFor(m)

		opt := cfg.profileOptions()
		opt.SampleBudget = 2000
		start := time.Now()
		prof, err := core.ProbProf(prog, oracle, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		p4wnTime := time.Since(start)

		label := fig8Targets[id]
		np, ok := prof.ByLabel(label)
		if !ok {
			return nil, fmt.Errorf("%s: target %q missing", m.Name, label)
		}

		points := baseline.PathSample(prog, cfg.oracleFor(m), cfg.Seed,
			cfg.SampleBudget*4, cfg.BaselineBudget*2)
		panel := Fig8Panel{
			Name:         m.Name,
			TargetLabel:  label,
			P4wnEstimate: np.P,
			P4wnTime:     p4wnTime,
		}
		for _, pt := range points {
			panel.Sampling = append(panel.Sampling, Fig8Point{
				Elapsed:     pt.Elapsed,
				Samples:     pt.Samples,
				Granularity: pt.Granularity,
			})
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}
