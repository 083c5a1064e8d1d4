package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SchemaVersion is the run-report schema version. Bump it on any breaking
// change to the Report JSON shape; CI diffs reports across revisions and
// needs to detect incompatibility.
//
// v2 added the optional "job" block (service-layer job metadata) to Report.
// v3 added the optional "ifc" block (information-flow leak summary) to
// Report.
// v4 added the optional "hot_blocks" block (per-CFG-block exploration cost)
// and the job block's "trace_id" field.
// v5 added the top-level "target" field: the device model
// (idealized/tofino/ebpf) the run was executed against.
const SchemaVersion = 5

// Report is the versioned machine-readable artifact of one profiling run:
// what was profiled, with which options, how the estimate converged, where
// the time went, and every metric the run accumulated.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Kind          string `json:"kind"` // "profile"
	Program       string `json:"program"`
	// Target is the device model the profile describes ("idealized",
	// "tofino", "ebpf"): the same program yields a different profile per
	// target, so every report names the one that produced it (schema v5).
	Target      string `json:"target"`
	GeneratedAt string `json:"generated_at,omitempty"` // RFC3339; empty in golden tests

	Options map[string]any `json:"options,omitempty"`

	// Job carries service-layer metadata when the run was executed by the
	// p4wnd daemon rather than a one-shot CLI invocation; nil otherwise, so
	// offline and served reports differ only in this block (and the
	// timestamps), never in the profile itself.
	Job *JobMeta `json:"job,omitempty"`

	WallSec float64            `json:"wall_sec"`
	Stages  map[string]float64 `json:"stages_sec"` // per-stage wall seconds

	Iterations []IterationRecord `json:"iterations,omitempty"`

	Converged bool         `json:"converged"`
	Coverage  float64      `json:"coverage"`
	Nodes     []NodeReport `json:"nodes"`

	// IFC carries the information-flow lint summary when the profiled
	// program declares a security policy; nil otherwise (schema v3).
	IFC *IFCSummary `json:"ifc,omitempty"`

	// HotBlocks ranks CFG blocks by attributed exploration cost — visits,
	// forks, and solver wall time accumulated inside the symbolic engine —
	// most expensive first (schema v4). Blocks never visited are omitted.
	HotBlocks []HotBlockReport `json:"hot_blocks,omitempty"`

	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// HotBlockReport is one CFG block's exploration cost: how often the engine
// entered it, how many path forks it spawned, and how much solver wall time
// its feasibility checks consumed. Visits and forks are deterministic for a
// fixed seed at any worker count; solver seconds are wall time and vary.
type HotBlockReport struct {
	Rank      int     `json:"rank"`
	ID        int     `json:"id"`
	Label     string  `json:"label"`
	Visits    int64   `json:"visits"`
	Forks     int64   `json:"forks"`
	SolverSec float64 `json:"solver_sec"`
}

// IFCSummary summarizes the information-flow pass over the profiled
// program: the policy that was checked and every leak found, ranked by the
// probability real traffic exercises the leaking path (leaks are weighted
// against this report's own block probabilities).
type IFCSummary struct {
	Secrets []string     `json:"secrets"`
	Sinks   []string     `json:"sinks"`
	Leaks   []LeakReport `json:"leaks"`
	// MaxP / MaxLog10P give the most probable leak's path probability
	// (0 / clamped when no leak is weighted) — the single number a CI
	// gate compares against a threshold.
	MaxP      float64 `json:"max_p"`
	MaxLog10P float64 `json:"max_log10_p"`
}

// LeakReport is one secret-to-sink flow.
type LeakReport struct {
	Source  string `json:"source"` // "kind:name"
	Sink    string `json:"sink"`
	Node    int    `json:"node"` // sink CFG node
	Block   string `json:"block"`
	Flow    string `json:"flow"`    // "explicit" | "implicit"
	Witness string `json:"witness"` // source→sink chain as "label(#id) -> ..."
	// P / Log10P weight the leak by its witness path's block
	// probabilities; Weighted is false when no profile join happened.
	P        float64 `json:"p"`
	Log10P   float64 `json:"log10_p"`
	Weighted bool    `json:"weighted"`
}

// MarshalJSON clamps -Inf log probabilities the same way NodeReport does.
func (l LeakReport) MarshalJSON() ([]byte, error) {
	type alias LeakReport
	a := alias(l)
	if a.Log10P < minLog10 {
		a.Log10P = minLog10
	}
	return json.Marshal(a)
}

// MarshalJSON clamps the summary's -Inf max the same way.
func (s IFCSummary) MarshalJSON() ([]byte, error) {
	type alias IFCSummary
	a := alias(s)
	if a.MaxLog10P < minLog10 {
		a.MaxLog10P = minLog10
	}
	return json.Marshal(a)
}

// JobMeta identifies one service-layer job: the content-addressed job ID
// (fingerprint of program text + normalized options), its queue trajectory,
// and how long it waited before a worker picked it up.
type JobMeta struct {
	ID          string  `json:"id"`
	TraceID     string  `json:"trace_id,omitempty"` // request-scoped trace identifier
	Kind        string  `json:"kind"`               // "profile" | "adversarial"
	Priority    int     `json:"priority,omitempty"`
	SubmittedAt string  `json:"submitted_at,omitempty"` // RFC3339Nano
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	WaitSec     float64 `json:"wait_sec,omitempty"` // queue wait before execution
}

// NodeReport is one profiled code block, rarest first.
type NodeReport struct {
	Rank   int     `json:"rank"`
	ID     int     `json:"id"`
	Label  string  `json:"label"`
	P      float64 `json:"p"`       // linear probability (0 on underflow)
	Log10P float64 `json:"log10_p"` // exact in log space; -Inf encodes as min float
	Source string  `json:"source"`
}

// MarshalJSON clamps the -Inf log probability of unreached blocks to a
// finite sentinel so the report stays valid JSON.
func (n NodeReport) MarshalJSON() ([]byte, error) {
	type alias NodeReport
	a := alias(n)
	if a.Log10P < minLog10 {
		a.Log10P = minLog10
	}
	return json.Marshal(a)
}

// minLog10 stands in for log10(0) in JSON output (JSON has no -Inf).
const minLog10 = -1e9

// Summary renders the report's stats as aligned human-readable text — the
// single renderer behind `p4wn profile` and the p4wnbench summaries.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: %s  target %s  wall %.3fs  converged=%v  coverage %.0f%%  iterations %d\n",
		r.Program, r.targetName(), r.WallSec, r.Converged, r.Coverage*100, len(r.Iterations))

	if len(r.Stages) > 0 {
		names := make([]string, 0, len(r.Stages))
		for k := range r.Stages {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return r.Stages[names[i]] > r.Stages[names[j]] })
		var rows [][]string
		total := 0.0
		for _, n := range names {
			total += r.Stages[n]
		}
		for _, n := range names {
			pct := 0.0
			if r.WallSec > 0 {
				pct = r.Stages[n] / r.WallSec * 100
			}
			rows = append(rows, []string{n, fmt.Sprintf("%.3f", r.Stages[n]), fmt.Sprintf("%.1f%%", pct)})
		}
		rows = append(rows, []string{"(sum)", fmt.Sprintf("%.3f", total), ""})
		b.WriteString(Table([]string{"stage", "sec", "of wall"}, rows))
	}

	if r.IFC != nil {
		fmt.Fprintf(&b, "ifc: %d leak(s), max leak p %.3g\n", len(r.IFC.Leaks), r.IFC.MaxP)
		var rows [][]string
		for _, l := range r.IFC.Leaks {
			pcell := "-"
			if l.Weighted {
				pcell = fmt.Sprintf("%.3g", l.P)
			}
			rows = append(rows, []string{l.Source, l.Sink, l.Flow, pcell, l.Witness})
		}
		if len(rows) > 0 {
			b.WriteString(Table([]string{"secret", "sink", "flow", "p", "witness"}, rows))
		}
	}

	if len(r.HotBlocks) > 0 {
		n := len(r.HotBlocks)
		if n > 10 {
			n = 10
		}
		fmt.Fprintf(&b, "hot blocks (top %d of %d):\n", n, len(r.HotBlocks))
		var rows [][]string
		for _, hb := range r.HotBlocks[:n] {
			rows = append(rows, []string{
				fmt.Sprintf("%d", hb.Rank), hb.Label,
				fmt.Sprintf("%d", hb.Visits), fmt.Sprintf("%d", hb.Forks),
				fmt.Sprintf("%.3f", hb.SolverSec),
			})
		}
		b.WriteString(Table([]string{"rank", "block", "visits", "forks", "solver s"}, rows))
	}

	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var rows [][]string
		for _, k := range keys {
			rows = append(rows, []string{k, fmt.Sprintf("%g", r.Metrics[k])})
		}
		b.WriteString(Table([]string{"metric", "value"}, rows))
	}
	return b.String()
}

// targetName spells out the report's target, defaulting the empty string
// of pre-v5 reports to "idealized" for display.
func (r *Report) targetName() string {
	if r.Target == "" {
		return "idealized"
	}
	return r.Target
}

// WriteJSONAtomic marshals v with indentation and writes it to path via a
// temp file + rename, so a crashed run never leaves a truncated report for
// CI to misparse.
func WriteJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// WriteFileAtomic writes data to path via a temp file + rename in the same
// directory — the durability primitive behind WriteJSONAtomic and the serve
// result store. Readers either see the previous complete file or the new
// one, never a torn write.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".atomic-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	return os.Rename(tmpName, path)
}

// Table renders aligned text columns with a dashed separator under the
// header — the shared renderer behind the eval tables and report summaries.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
