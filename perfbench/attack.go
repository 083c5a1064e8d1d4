package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/dut"
	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// attackTarget is one labelled block adversarial generation aims at.
type attackTarget struct {
	sys   int
	prog  *ir.Program
	node  int
	label string
}

// replayCase is one Figure-10 case with its normal traffic.
type replayCase struct {
	c      eval.AdvCase
	prog   *ir.Program
	normal *trace.Trace
}

type attackRunner struct {
	cfg     *config
	targets []attackTarget
	cases   []replayCase
	seconds int // amplified replay length
	pps     int // amplified replay rate
	// repeats is how many fresh switches replay each trace. Replaying a
	// short trace several times, rather than one long trace once, keeps the
	// traces small enough that the pass does not depend on how much memory
	// bandwidth the rest of the box leaves it.
	repeats int
}

// setupAttack builds S1–S15, lists every labelled block as a generation
// target, and generates each Figure-10 case's normal traffic at the
// replay size.
func setupAttack(cfg *config, tr *tracer) (runner, error) {
	r := &attackRunner{cfg: cfg, seconds: 1, pps: 20000, repeats: 5}
	if cfg.tiny {
		r.seconds, r.pps, r.repeats = 1, 2000, 2
	}
	progs := map[int]*ir.Program{}
	for _, m := range programs.Systems() {
		if cfg.tiny && m.ID%5 != 0 && m.ID != 5 {
			continue
		}
		prog := m.Build()
		lint(tr, prog)
		progs[m.ID] = prog
		seen := map[string]bool{}
		for _, n := range prog.Nodes() {
			if n.Label != "" && !seen[n.Label] {
				seen[n.Label] = true
				r.targets = append(r.targets, attackTarget{sys: m.ID, prog: prog, node: n.ID, label: n.Label})
			}
		}
	}
	for _, c := range eval.AdvCases() {
		prog, ok := progs[c.SystemID]
		if !ok {
			continue
		}
		m, _ := programs.SID(c.SystemID)
		opts := m.Workload(cfg.seed)
		opts.Packets = r.seconds * r.pps
		sp := tr.start("trace.generate", -1)
		normal := trace.Generate(opts)
		normal.Retime(0, r.pps)
		tr.end(sp)
		r.cases = append(r.cases, replayCase{c: c, prog: prog, normal: normal})
	}
	return r, nil
}

func (r *attackRunner) pass(tr *tracer) (*passResult, error) {
	res := &passResult{digests: map[string]string{}, layer: map[string]float64{}}
	buildsBefore := solver.MetricsView()["builds"]
	start := time.Now()

	// Generation over every labelled block.
	advs := map[string]*testgen.AdvTrace{}
	var validated []string
	var gen, symbex, solve, havoc time.Duration
	for _, t := range r.targets {
		sp := tr.start("testgen.generate", -1)
		t0 := time.Now()
		adv, _ := testgen.Generate(t.prog, t.node, testgen.Options{Seed: r.cfg.seed})
		d := time.Since(t0)
		tr.end(sp)
		gen += d
		res.attempted++
		res.opsMS = append(res.opsMS, float64(d)/1e6)
		key := fmt.Sprintf("S%d/%s", t.sys, t.label)
		if adv == nil {
			continue
		}
		symbex += adv.Decomp.Symbex
		solve += adv.Decomp.Solver
		havoc += adv.Decomp.Havoc
		advs[key] = adv
		if adv.Validated {
			validated = append(validated, key)
		}
	}
	sort.Strings(validated)
	res.digests["testgen/validated"] = digest([]byte(strings.Join(validated, "\n")))
	res.layer["testgen.generate_s"] = gen.Seconds()
	res.layer["testgen.symbex_s"] = symbex.Seconds()
	res.layer["testgen.solver_s"] = solve.Seconds()
	res.layer["testgen.havoc_s"] = havoc.Seconds()
	if len(r.targets) > 0 {
		res.layer["testgen.validated_ratio"] = float64(len(validated)) / float64(len(r.targets))
	}

	// Amplify each Figure-10 case's trace and replay it, and normal
	// traffic of the same size, through fresh switches. Every replay of a
	// trace must give the same totals.
	var replay time.Duration
	var pkts int
	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	for _, rc := range r.cases {
		res.attempted++
		adv := advs[fmt.Sprintf("S%d/%s", rc.c.SystemID, rc.c.Label)]
		if adv == nil || len(adv.Packets) == 0 {
			res.fail("case %s: no adversarial trace for S%d/%s", rc.c.Panel, rc.c.SystemID, rc.c.Label)
			continue
		}
		sp := tr.start("testgen.workload", -1)
		attack := testgen.WorkloadFor(adv, r.seconds, r.pps)
		tr.end(sp)
		var totals [2][]byte
		for i, tt := range []*trace.Trace{rc.normal, attack} {
			for k := 0; k < r.repeats; k++ {
				res.attempted++
				sw := dut.New(rc.prog, dut.Config{})
				sp := tr.start("dut.replay", -1)
				t0 := time.Now()
				m := sw.Replay(tt)
				d := time.Since(t0)
				tr.end(sp)
				replay += d
				res.opsMS = append(res.opsMS, float64(d)/1e6)
				pkts += tt.Len()
				data, err := json.Marshal(m.Totals())
				if err != nil {
					return nil, err
				}
				if k == 0 {
					totals[i] = data
				} else if !bytes.Equal(data, totals[i]) {
					res.fail("case %s: replay %d of trace %d gave other totals than the first", rc.c.Panel, k, i)
				}
			}
		}
		res.digests["replay/"+rc.c.Panel] = digest(append(totals[0], totals[1]...))
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
	}
	res.wall = time.Since(start)
	res.layer["dut.replay_s"] = replay.Seconds()
	if pkts > 0 {
		res.layer["dut.replay_pps"] = float64(pkts) / replay.Seconds()
		res.layer["dut.process_ns"] = float64(replay) / float64(pkts)
		res.layer["dut.allocs_per_pkt"] = float64(after.Mallocs-before.Mallocs) / float64(pkts)
	}
	res.layer["solver.builds"] = solver.MetricsView()["builds"] - buildsBefore
	return res, nil
}

// probes: the pass itself times every generation and replay call.
func (r *attackRunner) probes(*tracer, map[string]float64) error { return nil }

func (r *attackRunner) close() {}
