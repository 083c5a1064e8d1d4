// Command p4wnbench regenerates the paper's tables and figures and prints
// them as text, optionally writing each to a file.
//
//	p4wnbench -exp all -scale quick
//	p4wnbench -exp fig6a,fig10 -scale default -outdir results/
//
// -workers sets the profiler's degree of parallelism for every experiment
// (0 = GOMAXPROCS). -workers-sweep replaces the experiment list with a
// scaling sweep: each sweep program is profiled at 1, 2, 4, and GOMAXPROCS
// workers, one line per (program, worker count). The sweep also asserts
// that every worker count renders a byte-identical profile to workers=1 —
// a mismatch fails the run. Performance is measured by perfbench/, not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	p4wn "repro"
	"repro/internal/eval"
	"repro/internal/p4c"
	"repro/internal/target"
)

type experiment struct {
	name string
	run  func(eval.Config) (fmt.Stringer, error)
}

func wrap[T fmt.Stringer](f func(eval.Config) (T, error)) func(eval.Config) (fmt.Stringer, error) {
	return func(c eval.Config) (fmt.Stringer, error) { return f(c) }
}

var experiments = []experiment{
	{"table1", wrap(eval.Table1)},
	{"fig6a", wrap(eval.Figure6a)},
	{"fig6b", wrap(eval.Figure6b)},
	{"fig6c", wrap(eval.Figure6c)},
	{"fig6d", wrap(eval.Figure6d)},
	{"fig6e", wrap(eval.Figure6e)},
	{"fig6f", wrap(eval.Figure6f)},
	{"fig7", wrap(eval.Figure7)},
	{"fig8", wrap(eval.Figure8)},
	{"fig9", wrap(eval.Figure9)},
	{"fig10", wrap(eval.Figure10)},
	{"fig11", wrap(eval.Figure11)},
	{"fig12", wrap(eval.Figure12)},
	{"fig13", wrap(eval.Figure13)},
	{"accuracy", wrap(eval.AccuracyVsExhaustive)},
	{"offload", wrap(eval.OffloadCaseStudy)},
	{"ablations", wrap(eval.Ablations)},
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiments, or 'all'")
	scale := flag.String("scale", "quick", "quick | default | full")
	outdir := flag.String("outdir", "", "write each experiment's output to <outdir>/<name>.txt")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "profiler parallelism for every experiment (0 = GOMAXPROCS)")
	targetName := flag.String("target", "", "device model every experiment runs against (idealized, tofino, ebpf)")
	workersSweep := flag.Bool("workers-sweep", false, "run the worker-scaling sweep instead of the experiment list")
	flag.Parse()

	var cfg eval.Config
	switch *scale {
	case "quick":
		cfg = eval.Quick()
	case "default":
		cfg = eval.DefaultConfig()
	case "full":
		cfg = eval.Full()
	default:
		fmt.Fprintf(os.Stderr, "p4wnbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	if _, err := target.Lookup(*targetName); err != nil {
		fmt.Fprintf(os.Stderr, "p4wnbench: %v\n", err)
		os.Exit(2)
	}
	cfg.Target = *targetName

	if *workersSweep {
		os.Exit(runWorkersSweep(cfg, *seed))
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, n := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}

	failed := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		start := time.Now()
		res, err := e.run(cfg)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p4wnbench: %s failed: %v\n", e.name, err)
			failed++
			continue
		}
		text := res.String()
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", e.name, elapsed.Seconds(), text)
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "p4wnbench:", err)
				os.Exit(1)
			}
			path := filepath.Join(*outdir, e.name+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "p4wnbench:", err)
				os.Exit(1)
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// sweepProgram is one subject of the worker-scaling sweep: a zoo system or
// a mini-language source file from examples/programs/. The oracle is a
// factory, not an instance — each (program, worker count) run gets a fresh
// oracle so no run inherits a warm query cache from the previous count.
type sweepProgram struct {
	name   string
	prog   *p4wn.Program
	oracle func() p4wn.Oracle
}

// sweepPrograms assembles the sweep subjects: the first two zoo systems of
// the evaluation plus every example program shipped in examples/programs/.
// The examples are found relative to the working directory; finding none,
// or failing to read or parse one, is an error naming the path.
func sweepPrograms(seed int64) ([]sweepProgram, error) {
	var out []sweepProgram
	zoo := eval.S1toS11()
	if len(zoo) > 2 {
		zoo = zoo[:2]
	}
	for _, m := range zoo {
		m := m
		out = append(out, sweepProgram{
			name: m.Name,
			prog: m.Build(),
			oracle: func() p4wn.Oracle {
				return p4wn.TraceOracle(p4wn.GenerateTraffic(m.Workload(seed)))
			},
		})
	}
	pattern := filepath.Join("examples", "programs", "*.p4w")
	files, _ := filepath.Glob(pattern) // a constant pattern: no ErrBadPattern
	if len(files) == 0 {
		return nil, fmt.Errorf("no example programs match %s (run from the repository root)", pattern)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		prog, err := p4c.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, sweepProgram{
			name: strings.TrimSuffix(filepath.Base(f), ".p4w"),
			prog: prog,
			oracle: func() p4wn.Oracle {
				return p4wn.TraceOracle(p4wn.GenerateTraffic(p4wn.TrafficOptions{Seed: seed}))
			},
		})
	}
	return out, nil
}

// sweepCounts returns the worker counts to measure: 1, 2, 4, GOMAXPROCS,
// deduplicated and sorted (on a 2-core box that is 1, 2, 4).
func sweepCounts() []int {
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	sort.Ints(counts)
	out := counts[:1]
	for _, c := range counts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// runWorkersSweep profiles each sweep program once per worker count,
// printing one line per (program, count) and checking that the rendered
// profile is byte-identical to the workers=1 run. Returns the process exit
// code.
func runWorkersSweep(cfg eval.Config, seed int64) int {
	subjects, err := sweepPrograms(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p4wnbench:", err)
		return 1
	}
	counts := sweepCounts()
	failed := 0
	for _, sp := range subjects {
		var refText string
		for _, w := range counts {
			opt := p4wn.ProfileOptions{
				Seed:         seed,
				Timeout:      cfg.ProfileTimeout,
				SampleBudget: cfg.SampleBudget,
				MaxIters:     cfg.ProfileMaxIters,
				Workers:      w,
				Target:       cfg.Target,
			}
			oracle := sp.oracle()
			start := time.Now()
			prof, err := p4wn.Profile(sp.prog, oracle, opt)
			elapsed := time.Since(start)
			if err == nil {
				if text := prof.String(); w == counts[0] {
					refText = text
				} else if text != refText {
					err = fmt.Errorf("profile output differs from workers=%d", counts[0])
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "p4wnbench: workers/%s/w%d failed: %v\n", sp.name, w, err)
				failed++
			}
			fmt.Printf("workers/%-24s w=%d  %.2fs  ok=%v\n", sp.name, w, elapsed.Seconds(), err == nil)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
