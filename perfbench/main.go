// Command perfbench is the repository benchmark: it runs one workload for
// a fixed wall-clock window and prints one JSON result line.
//
//	perfbench --workload profile_deep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with no
// tracing at all. With --trace 1 the run makes one untraced and one traced
// pass of the same work plus a set of layer probes, and the result carries
// the per-layer metrics. Spans are recorded only from this package's own
// code, around the calls it makes into each layer's public functions; the
// program under test carries no extra instrumentation.
//
// Every input is derived from --seed. Outputs are checked against the
// digests in reference.json when it holds the seed, and against the first
// pass of the run (or, for served results, the offline profile) otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few seconds of work (self-test size).
	tiny bool
	// root is the repository checkout the benchmark reads programs from.
	root string
	// bin holds the p4wnd binary serve_fleet starts.
	bin string
	// work is the scratch directory for stores and span dumps.
	work string
	// refPath is the reference digest file; refs are its digests.
	refPath string
	refs    *references
	// record writes this run's digests for its seed into refPath.
	record bool
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	size := fs.String("size", "full", "workload size: full or tiny")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout")
	fs.StringVar(&cfg.bin, "bin", "", "directory holding the p4wnd binary (serve_fleet)")
	fs.StringVar(&cfg.work, "work", "", "scratch directory (default <root>/.bench_build/work)")
	fs.StringVar(&cfg.refPath, "ref", "", "reference digest file (default <root>/perfbench/reference.json)")
	fs.BoolVar(&cfg.record, "record", false, "write this run's digests for its seed into the -ref file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || (*size != "full" && *size != "tiny") {
		fs.Usage()
		return 2
	}
	cfg.trace = *traceFlag == 1
	cfg.tiny = *size == "tiny"
	if cfg.work == "" {
		cfg.work = filepath.Join(cfg.root, ".bench_build", "work")
	}
	if cfg.refPath == "" {
		cfg.refPath = filepath.Join(cfg.root, "perfbench", "reference.json")
	}
	refs, err := loadReferences(cfg.refPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg.refs = refs
	res, err := runWorkload(&cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// workload is one benchmark input set.
type workload struct {
	name string
	// setups is how many times set-up runs for setup_s: more where a
	// single set-up is short and noisy.
	setups int
	// warmup passes run before the measured window: the first passes of
	// the big in-process workloads still fault in their heap.
	warmup int
	// setup prepares the inputs (and, for serve_fleet, the daemons). The
	// tracer is nil outside traced runs.
	setup func(cfg *config, tr *tracer) (runner, error)
}

// runner executes a set-up workload.
type runner interface {
	// pass runs the workload's fixed unit of work once.
	pass(tr *tracer) (*passResult, error)
	// probes times single layer calls on the workload's own inputs (traced
	// runs only) and adds their metrics to layer.
	probes(tr *tracer, layer map[string]float64) error
	// close releases everything set-up acquired; it waits for every process
	// the runner started.
	close()
}

// passResult is what one pass measured and produced.
type passResult struct {
	wall      time.Duration
	opsMS     []float64 // latency of each operation of the pass
	attempted int
	failed    int
	problems  []string          // one line per failed or wrong operation
	digests   map[string]string // output digests, checked across passes and seeds
	layer     map[string]float64
	rssMB     float64 // peak resident memory outside this process (daemons)
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

var workloads = []workload{
	{name: "profile_deep", setups: 25, setup: setupProfileDeep},
	{name: "profile_wide", setups: 7, warmup: 1, setup: setupProfileWide},
	{name: "attack_replay", setups: 5, warmup: 1, setup: setupAttack},
	{name: "serve_fleet", setups: 25, setup: setupFleet},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload sets the workload up, measures it, checks its outputs and
// assembles the result.
func runWorkload(cfg *config, log io.Writer) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	if cfg.trace {
		return runTraced(cfg, w, log)
	}

	// Set-up is repeated and its median reported, so work moved into set-up
	// shows as a set-up regression rather than as a faster pass.
	setups := w.setups
	if cfg.tiny {
		setups = 1
	}
	var setupS []float64
	var r runner
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC() // no set-up pays for the garbage of the one before it
		start := time.Now()
		var err error
		r, err = w.setup(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer r.close()

	// Warm-up passes are checked like the others but not timed.
	var warm, passes []*passResult
	for i := 0; i < w.warmup && !cfg.tiny; i++ {
		p, err := freshPass(r)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up pass: %w", w.name, err)
		}
		warm = append(warm, p)
	}
	// Passes run until the window is full, stopping early rather than
	// overrunning it by more than half a pass.
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for len(passes) == 0 || time.Since(start)+passes[len(passes)-1].wall/2 < window {
		p, err := freshPass(r)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, len(passes), err)
		}
		passes = append(passes, p)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var walls, ops, rss []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		ops = append(ops, p.opsMS...)
		rss = append(rss, p.rssMB)
	}
	checked := append(warm, passes...)
	for _, p := range checked {
		res.Attempted += p.attempted
	}
	res.Failed += checkPasses(cfg, w.name, checked, log)
	if res.Failed > 0 {
		res.Correct = false
	}
	// Daemon workloads report their daemons' memory, in-process ones
	// this process's.
	peak := maxOf(rss)
	if peak == 0 {
		peak = selfPeakRSSMB()
	}
	values := map[string]float64{
		"setup_s":     median(setupS),
		"wall_s":      median(walls),
		"op_mean_ms":  sum(ops) / float64(len(ops)),
		"op_p90_ms":   quantile(ops, 0.9),
		"peak_rss_mb": peak,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: %d ops; pass seconds %.3f; set-up seconds %.4f\n",
		w.name, cfg.seed, len(ops), walls, setupS)
	return res, nil
}

// freshPass runs one pass from a collected heap, so no pass pays for the
// garbage of the one before it.
func freshPass(r runner) (*passResult, error) {
	runtime.GC()
	return r.pass(nil)
}

// checkPasses counts failed operations and compares every pass's digests
// with the first pass and with the recorded reference for the seed.
func checkPasses(cfg *config, name string, passes []*passResult, log io.Writer) int {
	failed := 0
	for i, p := range passes {
		failed += p.failed
		for _, msg := range p.problems {
			fmt.Fprintf(log, "perfbench: FAIL pass %d: %s\n", i, msg)
		}
		if i == 0 {
			continue
		}
		for _, k := range sortedKeys(passes[0].digests) {
			if p.digests[k] != passes[0].digests[k] {
				fmt.Fprintf(log, "perfbench: FAIL pass %d: %s digest %s differs from pass 0 (%s)\n", i, k, p.digests[k], passes[0].digests[k])
				failed++
			}
		}
	}
	if len(passes[0].digests) == 0 {
		return failed
	}
	if cfg.record {
		if err := recordReference(cfg.refPath, cfg.seed, cfg.size(), name, passes[0].digests); err != nil {
			fmt.Fprintf(log, "perfbench: FAIL recording references: %v\n", err)
			failed++
		}
	}
	want, ok := cfg.refs.lookup(cfg.seed, cfg.size(), name)
	if !ok {
		fmt.Fprintf(log, "perfbench: no reference digests for seed %d; checked pass-to-pass agreement only\n", cfg.seed)
		return failed
	}
	for _, k := range sortedKeys(want) {
		if got := passes[0].digests[k]; got != want[k] {
			fmt.Fprintf(log, "perfbench: FAIL %s digest %s does not match reference %s\n", k, got, want[k])
			failed++
		}
	}
	for _, k := range sortedKeys(passes[0].digests) {
		if _, ok := want[k]; !ok {
			fmt.Fprintf(log, "perfbench: FAIL %s has no reference digest\n", k)
			failed++
		}
	}
	return failed
}

func (c *config) size() string {
	if c.tiny {
		return "tiny"
	}
	return "full"
}

// runTraced makes one untraced and one traced pass of the same work, runs
// the layer probes under the tracer, and reports per-layer metrics.
func runTraced(cfg *config, w workload, log io.Writer) (*result, error) {
	tr := newTracer(fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, time.Now().UnixNano()))
	r, err := w.setup(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer r.close()
	for i := 0; i < w.warmup && !cfg.tiny; i++ {
		if _, err := freshPass(r); err != nil {
			return nil, fmt.Errorf("%s warm-up pass: %w", w.name, err)
		}
	}
	plain, err := freshPass(r)
	if err != nil {
		return nil, fmt.Errorf("%s untraced pass: %w", w.name, err)
	}
	runtime.GC()
	mark := tr.len()
	traced, err := r.pass(tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
	}
	layer := map[string]float64{}
	for k, v := range traced.layer {
		layer[k] = v
	}
	// Self times show how the workload's own pass splits its time, so they
	// come from the traced pass's spans only, not from set-up or probes.
	for l, s := range tr.selfTimes(mark) {
		layer["self."+l+"_s"] = s
	}
	if err := r.probes(tr, layer); err != nil {
		return nil, fmt.Errorf("%s probes: %w", w.name, err)
	}
	// Set-up calls, traced once.
	layer["p4c.parse_ms"] = tr.total("p4c.parse") * 1e3
	layer["analysis.lint_ms"] = tr.total("analysis.lint") * 1e3
	layer["trace.generate_s"] = tr.total("trace.generate")
	layer["bench.trace_overhead_s"] = traced.wall.Seconds() - plain.wall.Seconds()
	layer["bench.trace_overhead_ratio"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	layer["bench.spans"] = float64(tr.len())
	attempted := plain.attempted + traced.attempted
	failed := checkPasses(cfg, w.name, []*passResult{plain, traced}, log)
	layer["bench.failed_frac"] = float64(failed) / math.Max(1, float64(attempted))

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
	}
	path := filepath.Join(cfg.work, "spans-"+tr.runID+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: %d spans written to %s\n", w.name, cfg.seed, tr.len(), path)
	return res, nil
}

// selfPeakRSSMB reads this process's peak resident set (VmHWM).
func selfPeakRSSMB() float64 {
	return peakRSSMB(os.Getpid())
}

// peakRSSMB reads a process's peak resident set from /proc; 0 when it is
// not available.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median and quantile interpolate linearly between closest ranks.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// workers is the in-process profiler parallelism, sized for a two-core box.
const workers = 2
