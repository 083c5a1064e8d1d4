package eval

import (
	"fmt"
	"strings"

	"repro/internal/dut"
	"repro/internal/obs"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// Fig10Row is one adversarial workload's disruption measurement.
type Fig10Row struct {
	Panel      string
	System     string
	Target     string
	Metric     string
	NormalRate float64
	AdvRate    float64
	// Ratio is adversarial/normal (the 2-64x bars of Figure 10).
	Ratio float64
	// Validated is false when trace generation failed for this target.
	Validated bool
}

// Fig10Result reproduces Figure 10.
type Fig10Result struct{ Rows []Fig10Row }

func (r *Fig10Result) String() string {
	header := []string{"panel", "system", "target", "metric", "normal/s", "adversarial/s", "disruption"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Panel, row.System, row.Target, row.Metric,
			fmt.Sprintf("%.2f", row.NormalRate),
			fmt.Sprintf("%.2f", row.AdvRate),
			fmt.Sprintf("%.1fx", row.Ratio),
		})
	}
	return "Figure 10: adversarial disruption ratios (13 workloads)\n" + obs.Table(header, rows)
}

// metricRate extracts the named per-second rate from a replay.
func metricRate(m *dut.Metrics, metric string, seconds int) float64 {
	tot := m.Totals()
	if metric == "backup" {
		// Blink: traffic diverted to backup ports (>= 2).
		kb := 0.0
		for p := 2; p < len(tot.PortKB); p++ {
			kb += tot.PortKB[p]
		}
		if seconds <= 0 {
			seconds = 1
		}
		return kb / float64(seconds)
	}
	return tot.Rate(metric, seconds)
}

// advWorkloadFor generates and amplifies the adversarial workload of a case.
func advWorkloadFor(cfg Config, c AdvCase) (*trace.Trace, bool, error) {
	m := mustMetaByID(c.SystemID)
	prog := m.Build()
	node := prog.NodeByLabel(c.Label)
	if node == nil {
		return nil, false, fmt.Errorf("%s: label %q not found", m.Name, c.Label)
	}
	adv, err := testgen.Generate(prog, node.ID, testgen.Options{Seed: cfg.Seed})
	if err != nil && adv == nil {
		return nil, false, fmt.Errorf("%s/%s: %w", m.Name, c.Label, err)
	}
	w := testgen.WorkloadFor(adv, cfg.ReplaySeconds, cfg.ReplayPPS)
	return w, adv.Validated, nil
}

// warmup brings a switch to steady state before measurement (caches
// populated, learning tables filled), as a production deployment would be.
func warmup(cfg Config, c AdvCase, sw *dut.Switch) {
	m := mustMetaByID(c.SystemID)
	opts := m.Workload(cfg.Seed + 99)
	opts.Packets = cfg.ReplaySeconds * cfg.ReplayPPS
	tr := trace.Generate(opts)
	for i := range tr.Packets {
		sw.Process(&tr.Packets[i])
	}
}

// normalWorkloadFor produces the system's normal traffic at the replay rate.
func normalWorkloadFor(cfg Config, c AdvCase) *trace.Trace {
	m := mustMetaByID(c.SystemID)
	opts := m.Workload(cfg.Seed)
	opts.Packets = cfg.ReplaySeconds * cfg.ReplayPPS
	tr := trace.Generate(opts)
	tr.Retime(0, cfg.ReplayPPS)
	return tr
}

// Figure10 replays normal and adversarial workloads on fresh switches and
// reports the per-metric disruption ratio for each of the 13 cases.
func Figure10(cfg Config) (*Fig10Result, error) {
	res := &Fig10Result{}
	for _, c := range AdvCases() {
		m := mustMetaByID(c.SystemID)

		normal := normalWorkloadFor(cfg, c)
		swN := dut.New(m.Build(), dut.Config{})
		warmup(cfg, c, swN)
		mN := swN.Replay(normal)

		advTr, validated, err := advWorkloadFor(cfg, c)
		if err != nil {
			return nil, err
		}
		swA := dut.New(m.Build(), dut.Config{})
		warmup(cfg, c, swA)
		mA := swA.Replay(advTr)

		nr := metricRate(mN, c.Metric, cfg.ReplaySeconds)
		ar := metricRate(mA, c.Metric, cfg.ReplaySeconds)
		ratio := ar / (nr + 1e-9)
		if nr == 0 {
			ratio = ar // rate was zero under normal traffic: report absolute
		}
		res.Rows = append(res.Rows, Fig10Row{
			Panel: c.Panel, System: m.Name, Target: c.Label, Metric: c.Metric,
			NormalRate: nr, AdvRate: ar, Ratio: ratio, Validated: validated,
		})
	}
	return res, nil
}

// Fig11Series is one panel's time series: normal phase then adversarial.
type Fig11Series struct {
	Panel    string
	System   string
	Target   string
	Metric   string
	SwitchAt int // second at which the adversarial phase starts
	Values   []float64
}

// Fig11Result reproduces Figure 11's thirteen time-series panels.
type Fig11Result struct{ Panels []Fig11Series }

func (r *Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 11: per-second impact, normal phase then adversarial phase\n")
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "\n(%s) %s — %s [%s], adversarial from t=%ds\n",
			p.Panel, p.System, p.Target, p.Metric, p.SwitchAt)
		header := []string{"sec", p.Metric + "/s"}
		var rows [][]string
		for s, v := range p.Values {
			marker := ""
			if s == p.SwitchAt {
				marker = "  <- attack starts"
			}
			rows = append(rows, []string{fmt.Sprintf("%d", s), fmt.Sprintf("%.1f%s", v, marker)})
		}
		b.WriteString(obs.Table(header, rows))
	}
	return b.String()
}

// Figure11 replays each case on one switch: the normal workload for the
// first half, the adversarial workload for the second, binned per second.
func Figure11(cfg Config) (*Fig11Result, error) {
	res := &Fig11Result{}
	for _, c := range AdvCases() {
		m := mustMetaByID(c.SystemID)

		normal := normalWorkloadFor(cfg, c)
		advTr, _, err := advWorkloadFor(cfg, c)
		if err != nil {
			return nil, err
		}
		full := trace.Concat(normal, advTr)

		sw := dut.New(m.Build(), dut.Config{})
		warmup(cfg, c, sw)
		metrics := sw.Replay(full)

		series := perSecond(metrics, c.Metric)
		res.Panels = append(res.Panels, Fig11Series{
			Panel: c.Panel, System: m.Name, Target: c.Label, Metric: c.Metric,
			SwitchAt: cfg.ReplaySeconds, Values: series,
		})
	}
	return res, nil
}

// perSecond extracts the named metric's per-second series.
func perSecond(m *dut.Metrics, metric string) []float64 {
	switch metric {
	case "cpu":
		return dut.IntSeries(m.CPUPkts)
	case "digest":
		return dut.IntSeries(m.Digests)
	case "recirc":
		return dut.IntSeries(m.Recircs)
	case "mirror":
		return dut.IntSeries(m.Mirrors)
	case "backend":
		return dut.IntSeries(m.BackendPkts)
	case "drop":
		return dut.IntSeries(m.Dropped)
	case "backup":
		out := make([]float64, m.Seconds)
		for p := 2; p < len(m.PortKBps); p++ {
			for s, v := range m.PortKBps[p] {
				out[s] += v
			}
		}
		return out
	case "port_imbalance":
		// Per-second max port load (KBps) — collisions pile onto one port.
		out := make([]float64, m.Seconds)
		for s := 0; s < m.Seconds; s++ {
			for p := range m.PortKBps {
				if m.PortKBps[p][s] > out[s] {
					out[s] = m.PortKBps[p][s]
				}
			}
		}
		return out
	}
	return nil
}
