// Command p4wn is the CLI front end: list the program zoo, profile a
// system, generate adversarial traces, backtest traces against the
// software switch — and talk to a running p4wnd daemon.
//
//	p4wn list
//	p4wn lint -prog "Blink (S5)" [-deps]
//	p4wn lint -file my_program.p4w
//	p4wn lint -all
//	p4wn lint -prog "Counter (S1)" -ifc [-policy pol.json] [-weighted] [-fail-on 1e-3]
//	p4wn profile -prog "Blink (S5)" [-uniform] [-seed 1] [-v] [-report out.json]
//	p4wn profile -file my_program.p4w
//
// Observability flags (profile): -v streams per-iteration trace lines to
// stderr, -report writes the versioned JSON run report, -metrics-addr serves
// /metrics + expvar + pprof over HTTP for the duration of the run, and
// -cpuprofile/-memprofile capture Go runtime profiles. -workers sets the
// profiler's degree of parallelism (0 selects GOMAXPROCS); the profile is
// byte-identical for every worker count. -timeout (default 10s) and
// -max-iters (default 12) bound the symbolic loop; a run the wall-clock
// bound cuts short completes a number of iterations that depends on the
// machine, so reproducible runs pair a long -timeout with -max-iters.
//
//	p4wn adversarial -prog "Blink (S5)" -target reroute [-out adv.pcap]
//	p4wn backtest -prog "Blink (S5)" -trace adv.pcap
//	p4wn monitor -prog "Blink (S5)" -trace adv.pcap
//
// Service subcommands speak JSON over HTTP to a p4wnd daemon (-addr, or
// P4WND_ADDR in the environment):
//
//	p4wn submit -file prog.p4w [-follow]     enqueue a profiling job
//	p4wn submit -prog "Blink (S5)" -target reroute   adversarial job
//	p4wn status [-id JOB]                    one job, or every known job
//	p4wn result -id JOB [-o out.json]        fetch the stored result
//	p4wn cancel -id JOB                      cancel a queued/running job
//	p4wn cluster status                      coordinator shard table
//
// submit retries transient failures — connection errors and 429/503
// backpressure (honoring Retry-After) — with exponential backoff and
// jitter; -retries bounds the attempts. Against a coordinator, -tenant
// names the fair-share tenant the job is accounted to. The same
// submit/status/result/cancel/trace commands work unchanged against a
// single daemon or a coordinator.
//
// Trace files ending in .pcap are written/read as libpcap captures
// (replayable with standard tooling); any other extension uses the
// repository's binary trace format.
//
// Every subcommand exits 2 with a one-line usage message on bad flags or
// stray arguments, 1 on runtime errors (3 for monitor anomalies). `lint`
// exits 1 on error-severity findings, and with -fail-on also when any
// information-flow leak's weighted probability reaches the threshold.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	p4wn "repro"
	"repro/internal/dut"
	"repro/internal/eval"
	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/p4c"
	"repro/internal/target"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	run, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "p4wn: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	run(args)
}

// commands maps each subcommand to its runner. Every runner parses its own
// flag set through parseFlags, so flag errors behave identically across
// subcommands: one usage line on stderr, exit status 2.
var commands = map[string]func(args []string){
	"list":        runList,
	"targets":     runTargets,
	"lint":        runLint,
	"profile":     runProfile,
	"adversarial": runAdversarial,
	"backtest":    runBacktest,
	"monitor":     runMonitor,
	"submit":      runSubmit,
	"status":      runStatus,
	"result":      runResult,
	"cancel":      runCancel,
	"trace":       runTrace,
	"cluster":     runCluster,
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: p4wn <list|targets|lint|profile|adversarial|backtest|monitor|submit|status|result|cancel|trace|cluster> [flags]")
}

// newFlagSet builds a subcommand flag set with the uniform error
// behaviour: its usage is the single synopsis line.
func newFlagSet(name, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet("p4wn "+name, flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(os.Stderr, "usage: p4wn "+synopsis) }
	return fs
}

// parseFlags applies the shared parse discipline: -h/-help exits 0 after
// the usage line; any other flag error exits 2 (the flag package has
// already printed the error and the usage line); stray positional
// arguments are rejected the same way.
func parseFlags(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p4wn:", err)
	os.Exit(1)
}

func mustProgram(name string) p4wn.SystemMeta {
	if name == "" {
		fatal(fmt.Errorf("-prog required (see `p4wn list`)"))
	}
	m, ok := p4wn.LookupSystem(name)
	if !ok {
		fatal(fmt.Errorf("unknown program %q", name))
	}
	return m
}

// buildProgram resolves -prog / -file into a built program. When lenient is
// set, a -file program is built without checking its problems so the lint
// verifier can report every one instead of stopping at the first.
func buildProgram(name, file string, lenient bool) *p4wn.Program {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		parse := p4c.Parse
		if lenient {
			parse = p4c.ParseUnvalidated
		}
		prog, err := parse(string(src))
		if err != nil {
			fatal(err)
		}
		return prog
	}
	return mustProgram(name).Build()
}

// loadProgram resolves -prog / -file into a built program plus a workload
// generator for its oracle.
func loadProgram(name, file string, seed int64) (*p4wn.Program, p4wn.Oracle) {
	if file != "" {
		return buildProgram(name, file, false),
			p4wn.TraceOracle(p4wn.GenerateTraffic(p4wn.TrafficOptions{Seed: seed}))
	}
	m := mustProgram(name)
	return m.Build(), p4wn.TraceOracle(p4wn.GenerateTraffic(m.Workload(seed)))
}

// mustTargetModel validates a device-model name against the target
// registry. Unknown names follow the subcommand usage contract: one error
// line, the usage synopsis, exit status 2.
func mustTargetModel(fs *flag.FlagSet, name string) string {
	if _, err := target.Lookup(name); err != nil {
		fmt.Fprintf(os.Stderr, "p4wn: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}
	return name
}

// runTargets lists the device models a profile/adversarial run can execute
// against, with each model's resource limits.
func runTargets(args []string) {
	fs := newFlagSet("targets", "targets")
	parseFlags(fs, args)
	var rows [][]string
	for _, m := range target.All() {
		rows = append(rows, []string{m.CanonicalName(), m.Limits(), m.Description})
	}
	fmt.Print(obs.Table([]string{"target", "limits", "description"}, rows))
}

func runList(args []string) {
	fs := newFlagSet("list", "list")
	parseFlags(fs, args)
	fmt.Printf("%-20s %6s %9s %s\n", "name", "LoC", "stateful", "structures")
	for _, m := range p4wn.Systems() {
		structs := ""
		if m.UsesHash {
			structs += "hash "
		}
		if m.UsesBloom {
			structs += "bloom "
		}
		if m.UsesSketch {
			structs += "sketch "
		}
		if m.DeepState {
			structs += "deep"
		}
		st := "-"
		if m.Stateful {
			st = "yes"
		}
		fmt.Printf("%-20s %6d %9s %s\n", m.Name, m.PaperLoC, st, structs)
	}
}

// runLint runs the static-analysis suite and prints every diagnostic with
// its block label.
//
// Exit-code contract (mirrored by lint_test.go): exit 2 on usage errors,
// exit 1 when any linted program has error-severity findings (malformed
// IR) — and, with -ifc, when any leak's weighted path probability reaches
// the -fail-on threshold. Leaks below the threshold (or with -fail-on
// unset) are warnings and exit 0, matching the rest of the lint passes.
func runLint(args []string) {
	fs := newFlagSet("lint", "lint (-prog name | -file prog.p4w | -all) [-deps] [-ifc] [-policy pol.json] [-weighted] [-fail-on p]")
	progName := fs.String("prog", "", "program name from `p4wn list`")
	progFile := fs.String("file", "", "mini-language source file (alternative to -prog)")
	all := fs.Bool("all", false, "lint every zoo program")
	deps := fs.Bool("deps", false, "print the state-dependency graph")
	ifcOn := fs.Bool("ifc", false, "run the information-flow pass against the program's inline policy")
	policyFile := fs.String("policy", "", "JSON information-flow policy merged over the inline one (implies -ifc)")
	weighted := fs.Bool("weighted", false, "weight ifc leaks with a quick-scale profile (implies -ifc)")
	failOn := fs.Float64("fail-on", 0, "exit non-zero when any leak probability reaches this threshold (implies -ifc -weighted)")
	parseFlags(fs, args)
	if *policyFile != "" || *weighted || *failOn > 0 {
		*ifcOn = true
	}
	if *failOn > 0 {
		*weighted = true
	}

	var extra *p4wn.SecPolicy
	if *policyFile != "" {
		pol, err := p4wn.LoadPolicy(*policyFile)
		if err != nil {
			fatal(err)
		}
		extra = pol
	}

	var progs []*p4wn.Program
	switch {
	case *all:
		for _, m := range p4wn.Systems() {
			progs = append(progs, m.Build())
		}
	case *progName != "" || *progFile != "":
		progs = append(progs, buildProgram(*progName, *progFile, true))
	default:
		fmt.Fprintln(os.Stderr, "p4wn lint: needs -prog, -file, or -all")
		fs.Usage()
		os.Exit(2)
	}
	errors, tripped := 0, false
	for _, prog := range progs {
		var r *p4wn.LintReport
		if *ifcOn {
			r = p4wn.LintWithPolicy(prog, extra)
		} else {
			r = p4wn.Lint(prog)
		}
		if *weighted && r.IFC != nil && r.IFC.HasLeaks() && !r.HasErrors() {
			// A quick-scale profile over the uniform header space weights
			// each leak by its witness path's rarest block — deterministic
			// and cheap enough for a lint gate.
			opt := eval.Quick().ProfileOptions()
			prof, err := p4wn.Profile(prog, nil, opt)
			if err != nil {
				fatal(err)
			}
			p4wn.WeightIFC(r.IFC, prof)
		}
		fmt.Print(r)
		if r.IFC != nil {
			printLeaks(prog, r.IFC)
			if *failOn > 0 && r.IFC.MaxP().Float() >= *failOn {
				tripped = true
			}
		}
		errors += r.Errors()
		if *deps && r.Deps != nil {
			fmt.Print(r.Deps)
		}
	}
	if errors > 0 || tripped {
		os.Exit(1)
	}
}

// printLeaks renders the ifc result as a ranked table (probability column
// only when a profile join happened).
func printLeaks(prog *p4wn.Program, res *p4wn.IFCResult) {
	fmt.Printf("ifc %s: %d leak(s)", prog.Name, len(res.Leaks))
	if mp := res.MaxP(); !mp.IsZero() {
		fmt.Printf(", max leak p %s", mp)
	}
	fmt.Println()
	for _, l := range res.Leaks {
		flow := "explicit"
		if l.Implicit {
			flow = "implicit"
		}
		p := "-"
		if l.Weighted {
			p = l.P.String()
		}
		fmt.Printf("  %-10s %s -> %s (%s) via %s\n",
			p, l.Source, l.Sink, flow, res.WitnessString(prog, l))
	}
}

func runProfile(args []string) {
	fs := newFlagSet("profile", "profile (-prog name | -file prog.p4w) [-target model] [-uniform] [-seed n] [-workers n] [-timeout d] [-max-iters n] [-v] [-report out.json] [-hotblocks out.pprof] [-metrics-addr host:port] [-cpuprofile f] [-memprofile f]")
	progName := fs.String("prog", "", "program name from `p4wn list`")
	progFile := fs.String("file", "", "mini-language source file (alternative to -prog)")
	seed := fs.Int64("seed", 1, "random seed")
	targetName := fs.String("target", "", "device model to profile against (see `p4wn targets`; default idealized)")
	uniform := fs.Bool("uniform", false, "profile against the uniform header space instead of a synthetic trace")
	workers := fs.Int("workers", 0, "profiler parallelism; 0 selects GOMAXPROCS")
	timeout := fs.Duration("timeout", 0, "wall-clock bound on the symbolic loop before sampling takes over; 0 selects 10s")
	maxIters := fs.Int("max-iters", 0, "bound on the symbolic sequence length; 0 selects 12")
	verbose := fs.Bool("v", false, "stream per-iteration trace lines to stderr")
	reportPath := fs.String("report", "", "write the JSON run report to this path")
	hotPath := fs.String("hotblocks", "", "write the hot-block exploration profile (pprof format) to this path")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, and pprof on this address for the run")
	cpuProfile := fs.String("cpuprofile", "", "write a Go CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a Go heap profile to this path")
	parseFlags(fs, args)
	mustTargetModel(fs, *targetName)
	if *timeout < 0 || *maxIters < 0 {
		fmt.Fprintln(os.Stderr, "p4wn profile: -timeout and -max-iters must not be negative")
		fs.Usage()
		os.Exit(2)
	}

	prog, oracle := loadProgram(*progName, *progFile, *seed)
	if *uniform {
		oracle = nil
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	opt := p4wn.ProfileOptions{Seed: *seed, Workers: *workers, Target: *targetName,
		Timeout: *timeout, MaxIters: *maxIters}
	if *verbose {
		opt.Tracer = obs.NewTracer(os.Stderr)
	}
	reg := obs.NewRegistry()
	opt.Registry = reg
	if *metricsAddr != "" {
		addr, closeSrv, err := obs.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer closeSrv()
		fmt.Fprintf(os.Stderr, "serving metrics at http://%s/metrics\n", addr)
	}

	prof, err := p4wn.Profile(prog, oracle, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Print(prof)

	rep := p4wn.Report(prof, opt)
	p4wn.AttachIFC(rep, prog, prof)
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	fmt.Print(rep.Summary())
	if *reportPath != "" {
		if err := obs.WriteJSONAtomic(*reportPath, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote run report to %s\n", *reportPath)
	}
	if *hotPath != "" {
		f, err := os.Create(*hotPath)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteHotBlockPprof(f, prog.Name, rep.HotBlocks); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote hot-block profile to %s (inspect with `go tool pprof`)\n", *hotPath)
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

func runAdversarial(args []string) {
	fs := newFlagSet("adversarial", "adversarial (-prog name | -file prog.p4w) -target label [-target-model model] [-out adv.pcap] [-seed n] [-seconds n] [-pps n]")
	progName := fs.String("prog", "", "program name from `p4wn list`")
	progFile := fs.String("file", "", "mini-language source file (alternative to -prog)")
	target := fs.String("target", "", "target code-block label")
	targetModel := fs.String("target-model", "", "device model to generate against (see `p4wn targets`)")
	out := fs.String("out", "", "output trace file")
	seed := fs.Int64("seed", 1, "random seed")
	seconds := fs.Int("seconds", 10, "amplified workload duration")
	pps := fs.Int("pps", 1000, "amplified workload rate")
	parseFlags(fs, args)
	mustTargetModel(fs, *targetModel)

	prog, _ := loadProgram(*progName, *progFile, *seed)
	if *target == "" {
		fmt.Fprintln(os.Stderr, "p4wn adversarial: -target required (a block label from `p4wn profile`)")
		fs.Usage()
		os.Exit(2)
	}
	adv, err := p4wn.Adversarial(prog, *target, p4wn.AdversarialOptions{Seed: *seed, Target: *targetModel})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generated %d seed packets for %s/%s (validated=%v)\n",
		len(adv.Packets), prog.Name, *target, adv.Validated)
	fmt.Printf("  symbex %.3fs, solver %.3fs, havocing %.3fs\n",
		adv.Decomp.Symbex.Seconds(), adv.Decomp.Solver.Seconds(), adv.Decomp.Havoc.Seconds())
	if *out != "" {
		w := p4wn.Amplify(adv, *seconds, *pps)
		var werr error
		if strings.HasSuffix(*out, ".pcap") {
			werr = w.WritePcapFile(*out)
		} else {
			werr = w.WriteFile(*out)
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("wrote %d-packet amplified workload to %s\n", w.Len(), *out)
	}
}

func readTrace(traceFile string) *trace.Trace {
	var tr *trace.Trace
	var err error
	if strings.HasSuffix(traceFile, ".pcap") {
		tr, err = trace.ReadPcapFile(traceFile)
	} else {
		tr, err = trace.ReadFile(traceFile)
	}
	if err != nil {
		fatal(err)
	}
	return tr
}

func runBacktest(args []string) {
	fs := newFlagSet("backtest", "backtest (-prog name | -file prog.p4w) -trace file")
	progName := fs.String("prog", "", "program name from `p4wn list`")
	progFile := fs.String("file", "", "mini-language source file (alternative to -prog)")
	traceFile := fs.String("trace", "", "trace file to replay")
	parseFlags(fs, args)

	prog, _ := loadProgram(*progName, *progFile, 1)
	if *traceFile == "" {
		fmt.Fprintln(os.Stderr, "p4wn backtest: -trace required")
		fs.Usage()
		os.Exit(2)
	}
	tr := readTrace(*traceFile)
	metrics := p4wn.Backtest(prog, tr)
	tot := metrics.Totals()
	fmt.Printf("replayed %d packets over %d virtual seconds on %s\n", tr.Len(), metrics.Seconds, prog.Name)
	fmt.Printf("  cpu punts: %d, digests: %d, recircs: %d, mirrors: %d, backend: %d, drops: %d\n",
		tot.CPUPkts, tot.Digests, tot.Recircs, tot.Mirrors, tot.BackendPkts, tot.Dropped)
	for port, kb := range tot.PortKB {
		if kb > 0 {
			fmt.Printf("  port %d: %.1f KB\n", port, kb)
		}
	}
	fmt.Println()
	fmt.Println(metrics.Render(map[string][]float64{
		"cpu/s":     dut.IntSeries(metrics.CPUPkts),
		"backend/s": dut.IntSeries(metrics.BackendPkts),
		"recirc/s":  dut.IntSeries(metrics.Recircs),
	}))
}

// runMonitor implements the §6 mitigation flow: build the expected profile,
// replay a trace with block counters attached, and report anomaly alarms.
func runMonitor(args []string) {
	fs := newFlagSet("monitor", "monitor -prog name -trace file [-seed n] [-workers n]")
	progName := fs.String("prog", "", "program name from `p4wn list`")
	traceFile := fs.String("trace", "", "trace file to replay")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "profiler parallelism; 0 selects GOMAXPROCS")
	parseFlags(fs, args)

	m := mustProgram(*progName)
	prog := m.Build()
	if *traceFile == "" {
		fmt.Fprintln(os.Stderr, "p4wn monitor: -trace required")
		fs.Usage()
		os.Exit(2)
	}
	tr := readTrace(*traceFile)

	oracle := p4wn.TraceOracle(p4wn.GenerateTraffic(m.Workload(*seed)))
	prof, err := p4wn.Profile(prog, oracle, p4wn.ProfileOptions{Seed: *seed, Workers: *workers})
	if err != nil {
		fatal(err)
	}

	sw := p4wn.NewSwitch(prog)
	mon := mitigate.New(prof, mitigate.Options{})
	mon.Attach(sw)
	for i := range tr.Packets {
		sw.Process(&tr.Packets[i])
	}
	mon.Flush()

	alarms := mon.Alarms()
	fmt.Printf("monitored %d packets over %d windows: %d alarms\n",
		tr.Len(), mon.Windows(), len(alarms))
	for _, a := range alarms {
		fmt.Println(" ", a)
	}
	if len(alarms) > 0 {
		os.Exit(3) // distinct exit code for detected anomalies
	}
}
