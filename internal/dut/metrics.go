package dut

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Metrics is a per-second time series of switch measurements over a replay,
// binned by virtual packet timestamps.
type Metrics struct {
	Seconds int

	// PortKBps is per-port traffic in kilobytes per second.
	PortKBps [][]float64 // [port][second]
	// CPUPkts counts control-plane punts per second.
	CPUPkts []int
	// Digests counts control-plane digests per second.
	Digests []int
	// Recircs counts recirculated packets per second.
	Recircs []int
	// Mirrors counts mirrored packets per second.
	Mirrors []int
	// BackendPkts counts packets sent to backend servers per second.
	BackendPkts []int
	// Dropped counts drops per second.
	Dropped []int
}

// NewMetrics allocates a time series covering the given duration.
func NewMetrics(seconds, ports int) *Metrics {
	m := &Metrics{Seconds: seconds}
	m.PortKBps = make([][]float64, ports)
	for i := range m.PortKBps {
		m.PortKBps[i] = make([]float64, seconds)
	}
	m.CPUPkts = make([]int, seconds)
	m.Digests = make([]int, seconds)
	m.Recircs = make([]int, seconds)
	m.Mirrors = make([]int, seconds)
	m.BackendPkts = make([]int, seconds)
	m.Dropped = make([]int, seconds)
	return m
}

// Replay runs a trace through the switch and bins results per virtual
// second (relative to the trace's first packet).
func (s *Switch) Replay(tr *trace.Trace) *Metrics {
	if tr.Len() == 0 {
		return NewMetrics(0, s.Cfg.Ports)
	}
	t0 := tr.Packets[0].TS
	dur := int((tr.Packets[tr.Len()-1].TS-t0)/1e6) + 1
	m := NewMetrics(dur, s.Cfg.Ports)
	ports := uint64(s.Cfg.Ports)
	res := &s.res
	for i := range tr.Packets {
		p := &tr.Packets[i]
		bin := int((p.TS - t0) / 1e6)
		if bin >= dur {
			bin = dur - 1
		}
		s.run(p)
		if res.Forwarded && !res.Dropped {
			port := res.OutPort
			if port >= ports { // forwarding actions already reduce it
				port %= ports
			}
			m.PortKBps[port][bin] += float64(p.Len) / 1000
		}
		if res.Dropped {
			m.Dropped[bin]++
		}
		m.CPUPkts[bin] += res.CPUPunts
		m.Digests[bin] += res.Digests
		m.Recircs[bin] += res.Recircs
		m.Mirrors[bin] += res.Mirrors
		m.BackendPkts[bin] += res.BackendPkts
	}
	return m
}

// Totals aggregates the series into scalars.
type Totals struct {
	PortKB      []float64
	CPUPkts     int
	Digests     int
	Recircs     int
	Mirrors     int
	BackendPkts int
	Dropped     int
}

// Totals sums the time series.
func (m *Metrics) Totals() Totals {
	t := Totals{PortKB: make([]float64, len(m.PortKBps))}
	for p := range m.PortKBps {
		for _, v := range m.PortKBps[p] {
			t.PortKB[p] += v
		}
	}
	for i := 0; i < m.Seconds; i++ {
		t.CPUPkts += m.CPUPkts[i]
		t.Digests += m.Digests[i]
		t.Recircs += m.Recircs[i]
		t.Mirrors += m.Mirrors[i]
		t.BackendPkts += m.BackendPkts[i]
		t.Dropped += m.Dropped[i]
	}
	return t
}

// Rate returns a named per-second mean rate, for disruption comparisons.
func (t Totals) Rate(metric string, seconds int) float64 {
	if seconds <= 0 {
		seconds = 1
	}
	s := float64(seconds)
	switch metric {
	case "cpu":
		return float64(t.CPUPkts) / s
	case "digest":
		return float64(t.Digests) / s
	case "recirc":
		return float64(t.Recircs) / s
	case "mirror":
		return float64(t.Mirrors) / s
	case "backend":
		return float64(t.BackendPkts) / s
	case "drop":
		return float64(t.Dropped) / s
	case "port_imbalance":
		// Hottest port's load relative to the fair share: 1.0 means
		// perfectly balanced, numPorts means all traffic on one port.
		maxV, total := 0.0, 0.0
		for _, v := range t.PortKB {
			if v > maxV {
				maxV = v
			}
			total += v
		}
		if total <= 0 {
			return 0
		}
		return maxV * float64(len(t.PortKB)) / total
	}
	return 0
}

// Render formats selected series as aligned text columns (the repository's
// stand-in for the paper's time-series plots).
func (m *Metrics) Render(series map[string][]float64) string {
	var names []string
	for k := range series {
		names = append(names, k)
	}
	sortStrings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%6s", "sec")
	for _, n := range names {
		fmt.Fprintf(&b, " %14s", n)
	}
	b.WriteByte('\n')
	for s := 0; s < m.Seconds; s++ {
		fmt.Fprintf(&b, "%6d", s)
		for _, n := range names {
			v := 0.0
			if s < len(series[n]) {
				v = series[n][s]
			}
			fmt.Fprintf(&b, " %14.1f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// IntSeries converts an int series to float for Render.
func IntSeries(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
