package eval

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/testgen"
)

// AdvCase names one adversarial target (the 13 workloads of Figure 11 plus
// the generic per-system targets of Figures 9/10).
type AdvCase struct {
	SystemID int
	Label    string // target block label
	Metric   string // disruption metric
	Panel    string // Figure 11 panel id ("a".."m")
	Desc     string
}

// AdvCases lists the paper's 13 adversarial workloads.
func AdvCases() []AdvCase {
	return []AdvCase{
		{1, "conn_collision", "recirc", "a", "lb: connection-table collisions overload the victim path"},
		{2, "flowlet_collision", "recirc", "b", "flowlet: collisions defeat rebalancing"},
		{3, "nat_miss", "cpu", "c", "nat: unmapped flows flood the control plane"},
		{4, "acl_miss", "cpu", "d", "acl: unmatched packets escalate to the CPU"},
		{5, "reroute", "backup", "e", "Blink: fabricated retransmissions flip the route"},
		{6, "cache_miss", "backend", "f", "NetCache: cold keys bypass the cache"},
		{7, "gpv_evict", "backend", "g", "*Flow: collisions evict telemetry buffers"},
		{8, "db_followup", "backend", "h", "p40f: unknown signature floods the DB"},
		{9, "hc_learn", "cpu", "i", "NetHCF: spoofed new sources flood CPU learning"},
		{10, "ctx_collision", "digest", "j", "Poise: context collisions storm digests"},
		{10, "data_collision", "recirc", "k", "Poise: data collisions recirculate"},
		{11, "timing_suspect", "backend", "l", "NetWarden: wide IPDs flood the slowpath"},
		{11, "dup_ack", "backend", "m", "NetWarden: duplicate ACKs buffer forever"},
	}
}

// Fig9Row is one system's trace-generation cost, decomposed by phase.
type Fig9Row struct {
	Name    string
	Targets int
	Symbex  time.Duration
	Havoc   time.Duration
	Solver  time.Duration
	Failed  int
}

// Fig9Result reproduces Figure 9.
type Fig9Result struct{ Rows []Fig9Row }

func (r *Fig9Result) String() string {
	header := []string{"system", "targets", "symbex (s)", "havocing (s)", "solver (s)", "failed"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%d", row.Targets),
			fmtDur(row.Symbex),
			fmtDur(row.Havoc),
			fmtDur(row.Solver),
			fmt.Sprintf("%d", row.Failed),
		})
	}
	return "Figure 9: adversarial trace generation time (top-10 rarest blocks per system)\n" +
		obs.Table(header, rows)
}

// topTargets returns up to k of the lowest-probability CFG nodes of a
// profile, skipping the entry node.
func topTargets(prof *core.Profile, prog *ir.Program, k int) []int {
	var out []int
	for _, n := range prof.Nodes {
		if n.Label == "entry" {
			continue
		}
		out = append(out, n.ID)
		if len(out) == k {
			break
		}
	}
	return out
}

// Figure9 generates adversarial traces for the top-10 lowest-probability
// code blocks of every system and reports the per-phase time decomposition.
func Figure9(cfg Config) (*Fig9Result, error) {
	res := &Fig9Result{}
	for _, m := range S1toS11() {
		prog := m.Build()
		opt := cfg.profileOptions()
		opt.SampleBudget = 2000
		prof, err := core.ProbProf(prog, cfg.oracleFor(m), opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		row := Fig9Row{Name: m.Name}
		for _, target := range topTargets(prof, prog, 10) {
			adv, err := testgen.Generate(prog, target, testgen.Options{Seed: cfg.Seed})
			if err != nil || !adv.Validated {
				row.Failed++
			}
			if adv != nil {
				row.Symbex += adv.Decomp.Symbex
				row.Havoc += adv.Decomp.Havoc
				row.Solver += adv.Decomp.Solver
			}
			row.Targets++
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// mustMetaByID panics on an unregistered system id (registry is static).
func mustMetaByID(id int) programs.Meta {
	m, ok := programs.SID(id)
	if !ok {
		panic(fmt.Sprintf("eval: system S%d not registered", id))
	}
	return m
}
