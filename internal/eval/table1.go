package eval

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/programs"
)

// Table1Row is one program of paper Table 1.
type Table1Row struct {
	Name      string
	LoC       int
	Stateful  bool
	HasApprox bool
	// VeraSupports mirrors the paper: Vera only analyzes stateless
	// programs.
	VeraSupports bool
	// Time is this repository's P4wn analysis time.
	Time time.Duration
	// Converged/Coverage qualify the analysis.
	Coverage float64
}

// Table1Result reproduces paper Table 1.
type Table1Result struct {
	Vera []Table1Row // the stateless comparison set
	New  []Table1Row // the stateful systems only P4wn analyzes
}

// Table1 profiles every zoo program: the stateless Vera set (which both
// tools handle — we report this repo's P4wn time) and the stateful systems
// (which only P4wn can analyze).
func Table1(cfg Config) (*Table1Result, error) {
	res := &Table1Result{}
	run := func(m programs.Meta) (Table1Row, error) {
		prog := m.Build()
		opt := cfg.profileOptions()
		opt.SampleBudget = 5000 // keep Table 1 brisk
		start := time.Now()
		prof, err := core.ProbProf(prog, nil, opt)
		if err != nil {
			return Table1Row{}, fmt.Errorf("%s: %w", m.Name, err)
		}
		return Table1Row{
			Name:         m.Name,
			LoC:          m.PaperLoC,
			Stateful:     m.Stateful,
			HasApprox:    prog.HasApprox(),
			VeraSupports: !m.Stateful && !prog.HasApprox(),
			Time:         time.Since(start),
			Coverage:     prof.Coverage,
		}, nil
	}
	for _, m := range programs.Stateless() {
		row, err := run(m)
		if err != nil {
			return nil, err
		}
		res.Vera = append(res.Vera, row)
	}
	for _, m := range programs.Systems() {
		if m.VeraSet || m.ID > 15 {
			continue // NAT/ACL already in the Vera half; portknock is §6
		}
		row, err := run(m)
		if err != nil {
			return nil, err
		}
		res.New = append(res.New, row)
	}
	return res, nil
}

func (r *Table1Result) String() string {
	header := []string{"program", "LoC", "stateful", "approx-DS", "Vera", "P4wn (s)", "coverage"}
	var rows [][]string
	add := func(rs []Table1Row) {
		for _, row := range rs {
			vera := "ok"
			if !row.VeraSupports {
				vera = "✗"
			}
			rows = append(rows, []string{
				row.Name,
				fmt.Sprintf("%d", row.LoC),
				boolMark(row.Stateful),
				boolMark(row.HasApprox),
				vera,
				fmtDur(row.Time),
				fmt.Sprintf("%.0f%%", row.Coverage*100),
			})
		}
	}
	add(r.Vera)
	rows = append(rows, []string{"---", "", "", "", "", "", ""})
	add(r.New)
	return "Table 1: stateless (Vera set) and stateful programs\n" + obs.Table(header, rows)
}
