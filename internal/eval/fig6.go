package eval

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/sym"
)

// SweepPoint is one (x, baseline, p4wn) measurement of a Figure 6 sweep.
type SweepPoint struct {
	X                int
	BaselineTime     time.Duration
	BaselineTimedOut bool
	P4wnTime         time.Duration
}

// SweepResult is one Figure 6 panel.
type SweepResult struct {
	Title  string
	XLabel string
	Points []SweepPoint
}

func (r *SweepResult) String() string {
	header := []string{r.XLabel, "baseline KLEE (s)", "P4wn (s)"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.X),
			fmtTimeout(p.BaselineTime, p.BaselineTimedOut),
			fmtDur(p.P4wnTime),
		})
	}
	return r.Title + "\n" + obs.Table(header, rows)
}

// p4wnTime profiles a program and returns the wall time.
func p4wnTime(cfg Config, prog *ir.Program) (time.Duration, error) {
	opt := cfg.profileOptions()
	opt.SampleBudget = 2000
	start := time.Now()
	_, err := core.ProbProf(prog, nil, opt)
	return time.Since(start), err
}

// Figure6a sweeps the counter threshold N of S12: the baseline must unroll
// N packets (2^N paths) while telescoping stays flat.
func Figure6a(cfg Config) (*SweepResult, error) {
	res := &SweepResult{Title: "Figure 6a: telescoping (counter.p4, threshold sweep)", XLabel: "threshold"}
	for _, n := range cfg.ThresholdSweep {
		prog := programs.Counter(uint64(n))
		b := baseline.Exhaustive(prog, n+1, cfg.BaselineBudget, cfg.BaselineMaxPaths)
		pt, err := p4wnTime(cfg, programs.Counter(uint64(n)))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, SweepPoint{
			X: n, BaselineTime: b.Duration, BaselineTimedOut: b.TimedOut, P4wnTime: pt,
		})
	}
	return res, nil
}

// sizeSweep runs a Figure 6b/6c/6d panel: 5 symbolic packets over a
// structure of growing size.
func sizeSweep(cfg Config, title string, build func(size int) *ir.Program) (*SweepResult, error) {
	res := &SweepResult{Title: title, XLabel: "size"}
	const packets = 5
	for _, lg := range cfg.SizeSweep {
		size := 1 << uint(lg)
		b := baseline.Exhaustive(build(size), packets, cfg.BaselineBudget, cfg.BaselineMaxPaths)

		prog := build(size)
		start := time.Now()
		e := sym.NewEngine(prog, sym.Options{Greybox: true, Merge: true, MaxPaths: 1 << 18})
		counter := mc.NewCounter(e.Space, nil)
		paths := e.Initial()
		var err error
		for i := 0; i < packets; i++ {
			paths, err = e.Step(paths, i)
			if err != nil {
				return nil, err
			}
			paths = sym.Merge(paths, counter)
		}
		res.Points = append(res.Points, SweepPoint{
			X: size, BaselineTime: b.Duration, BaselineTimedOut: b.TimedOut,
			P4wnTime: time.Since(start),
		})
	}
	return res, nil
}

// Figure6b: greybox hash tables vs symbolic arrays (S13).
func Figure6b(cfg Config) (*SweepResult, error) {
	return sizeSweep(cfg, "Figure 6b: greybox analysis, hash tables (htable.p4)",
		func(size int) *ir.Program { return programs.HTable(size, 16) })
}

// Figure6c: greybox Bloom filters (S15).
func Figure6c(cfg Config) (*SweepResult, error) {
	return sizeSweep(cfg, "Figure 6c: greybox analysis, Bloom filters (bfilter.p4)",
		func(size int) *ir.Program { return programs.BFilter(size, 16) })
}

// Figure6d: greybox count-min sketches (S14).
func Figure6d(cfg Config) (*SweepResult, error) {
	return sizeSweep(cfg, "Figure 6d: greybox analysis, count-min sketches (cmsketch.p4)",
		func(size int) *ir.Program { return programs.CMSketch(size, 16) })
}

// Fig6eRow is one system of Figure 6e.
type Fig6eRow struct {
	Name             string
	BaselineTime     time.Duration
	BaselineTimedOut bool
	P4wnTime         time.Duration
	Coverage         float64
}

// Fig6eResult compares P4wn and the baseline end-to-end on S1–S11.
type Fig6eResult struct{ Rows []Fig6eRow }

func (r *Fig6eResult) String() string {
	header := []string{"system", "baseline KLEE (s)", "P4wn (s)", "P4wn coverage"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmtTimeout(row.BaselineTime, row.BaselineTimedOut),
			fmtDur(row.P4wnTime),
			fmt.Sprintf("%.0f%%", row.Coverage*100),
		})
	}
	return "Figure 6e: P4wn vs baseline on S1-S11\n" + obs.Table(header, rows)
}

// Figure6e profiles every data-plane system with both engines.
func Figure6e(cfg Config) (*Fig6eResult, error) {
	res := &Fig6eResult{}
	for _, m := range S1toS11() {
		// Baseline gets the number of packets the deepest guard needs,
		// capped at 12 (it times out far earlier anyway).
		pkts := 12
		b := baseline.Exhaustive(m.Build(), pkts, cfg.BaselineBudget, cfg.BaselineMaxPaths)

		prog := m.Build()
		opt := cfg.profileOptions()
		opt.SampleBudget = 4000
		start := time.Now()
		prof, err := core.ProbProf(prog, cfg.oracleFor(m), opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		res.Rows = append(res.Rows, Fig6eRow{
			Name:             m.Name,
			BaselineTime:     b.Duration,
			BaselineTimedOut: b.TimedOut,
			P4wnTime:         time.Since(start),
			Coverage:         prof.Coverage,
		})
	}
	return res, nil
}

// Figure6f sweeps the symbolic sequence length on Blink: the baseline dies
// around 8 packets; P4wn's cost stays flat thanks to merging+telescoping.
func Figure6f(cfg Config) (*SweepResult, error) {
	res := &SweepResult{Title: "Figure 6f: telescoping Blink (sequence length sweep)", XLabel: "packets"}
	for _, n := range cfg.SeqLenSweep {
		b := baseline.Exhaustive(programs.Blink(), n, cfg.BaselineBudget, cfg.BaselineMaxPaths)

		// P4wn's cost stays near-constant in the requested sequence
		// length: the profile converges after a few packets and the deep
		// reroute block is telescoped rather than unrolled.
		start := time.Now()
		if _, err := core.ProbProf(programs.Blink(), nil, core.Options{
			Seed: cfg.Seed, MaxIters: n, Timeout: cfg.ProfileTimeout,
			DisableSampling: true,
		}); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, SweepPoint{
			X: n, BaselineTime: b.Duration, BaselineTimedOut: b.TimedOut,
			P4wnTime: time.Since(start),
		})
	}
	return res, nil
}
