// Package eval regenerates every table and figure of the paper's
// evaluation section. Each Figure*/Table* function runs the corresponding
// experiment and returns a result struct whose String method renders the
// same rows/series the paper reports. Config scales the experiments:
// DefaultConfig finishes on a laptop in minutes, Full approaches the
// paper's parameters.
package eval

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/programs"
	"repro/internal/trace"
)

// Config scales experiment parameters.
type Config struct {
	// Seed drives all randomized components.
	Seed int64
	// BaselineBudget is the per-run wall-clock budget standing in for the
	// paper's one-hour KLEE timeout.
	BaselineBudget time.Duration
	// BaselineMaxPaths bounds baseline path explosion.
	BaselineMaxPaths int
	// ProfileTimeout bounds each P4wn profiling run.
	ProfileTimeout time.Duration
	// SampleBudget is the profiler's sampling-phase packet budget.
	SampleBudget int
	// ProfileMaxIters bounds the profiler's main symbolic loop.
	ProfileMaxIters int
	// ReplaySeconds is the backtesting duration per phase (Figures 10/11).
	ReplaySeconds int
	// ReplayPPS is the replay packet rate.
	ReplayPPS int
	// SizeSweep lists structure sizes (log2) for Figures 6b–6d.
	SizeSweep []int
	// ThresholdSweep lists counter thresholds for Figure 6a.
	ThresholdSweep []int
	// SeqLenSweep lists symbolic sequence lengths for Figure 6f.
	SeqLenSweep []int
	// Workers is the profiler's degree of parallelism (<= 0 selects
	// GOMAXPROCS); results are bit-identical for every worker count.
	Workers int
	// Target names the device model every experiment profiles against
	// ("idealized" when empty; "tofino", "ebpf"). Results produced under
	// different targets are not comparable.
	Target string
}

// DefaultConfig returns laptop-scale parameters.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		BaselineBudget:   2 * time.Second,
		BaselineMaxPaths: 1 << 17,
		ProfileTimeout:   15 * time.Second,
		SampleBudget:     20000,
		ProfileMaxIters:  8,
		ReplaySeconds:    7,
		ReplayPPS:        400,
		SizeSweep:        []int{6, 8, 10, 12, 14, 16},
		ThresholdSweep:   []int{1, 2, 4, 8, 16, 32, 64, 128},
		SeqLenSweep:      []int{1, 2, 4, 8, 16, 32, 64, 128},
	}
}

// Quick returns the fastest parameters that still show every shape —
// what the benchmark suite and smoke tests use.
func Quick() Config {
	c := DefaultConfig()
	c.BaselineBudget = 300 * time.Millisecond
	c.BaselineMaxPaths = 1 << 13
	c.ProfileTimeout = 5 * time.Second
	c.SampleBudget = 2000
	c.ProfileMaxIters = 5
	c.ReplaySeconds = 2
	c.ReplayPPS = 100
	c.SizeSweep = []int{6, 10}
	c.ThresholdSweep = []int{2, 16, 64}
	c.SeqLenSweep = []int{1, 4, 16}
	return c
}

// Full returns parameters closer to the paper's scale.
func Full() Config {
	c := DefaultConfig()
	c.BaselineBudget = 30 * time.Second
	c.ProfileTimeout = 60 * time.Second
	c.SampleBudget = 200000
	c.ReplaySeconds = 7
	c.ReplayPPS = 2000
	return c
}

// Preset maps a scale name to its Config — the seam the serve subsystem
// uses to let wire submissions pick an experiment scale by name.
func Preset(name string) (Config, bool) {
	switch name {
	case "quick":
		return Quick(), true
	case "default", "":
		return DefaultConfig(), true
	case "full":
		return Full(), true
	}
	return Config{}, false
}

// ProfileOptions builds the standard P4wn profiling options for this
// config — the exported form wire submissions are normalized through.
func (c Config) ProfileOptions() core.Options { return c.profileOptions() }

// profileOptions builds the standard P4wn profiling options.
func (c Config) profileOptions() core.Options {
	return core.Options{
		Seed:         c.Seed,
		Timeout:      c.ProfileTimeout,
		SampleBudget: c.SampleBudget,
		MaxIters:     c.ProfileMaxIters,
		Workers:      c.Workers,
		Target:       c.Target,
	}
}

// oracleFor returns a trace-backed oracle for a system.
func (c Config) oracleFor(m programs.Meta) dist.Oracle {
	return trace.NewQueryProcessor(trace.Generate(m.Workload(c.Seed)))
}

// S1toS11 returns the eleven data-plane systems of Figures 6e–10.
func S1toS11() []programs.Meta {
	var out []programs.Meta
	for id := 1; id <= 11; id++ {
		if m, ok := programs.SID(id); ok {
			out = append(out, m)
		}
	}
	return out
}

// fmtDur renders a duration in seconds with sensible precision.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// fmtTimeout renders a duration or the timeout marker.
func fmtTimeout(d time.Duration, timedOut bool) string {
	if timedOut {
		return "timeout"
	}
	return fmtDur(d)
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "-"
}
