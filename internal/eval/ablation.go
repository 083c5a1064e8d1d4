package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/trace"

	"repro/internal/ir"
)

// AblationRow is one design-choice measurement: the technique on vs off.
type AblationRow struct {
	Name    string
	OnTime  time.Duration
	OffTime time.Duration
	// OffTimedOut marks the off arm exhausting its budget.
	OffTimedOut bool
	// Note captures a quality difference money can't buy back (e.g. the
	// estimate that exists only with the technique enabled).
	Note string
}

// AblationResult collects the design-choice ablations DESIGN.md calls out.
type AblationResult struct{ Rows []AblationRow }

func (r *AblationResult) String() string {
	header := []string{"technique", "on (s)", "off (s)", "note"}
	var rows [][]string
	for _, row := range r.Rows {
		off := fmtDur(row.OffTime)
		if row.OffTimedOut {
			off = "timeout"
		}
		rows = append(rows, []string{row.Name, fmtDur(row.OnTime), off, row.Note})
	}
	return "Ablations: each P4wn design choice on vs off\n" + obs.Table(header, rows)
}

// Ablations measures every design choice in isolation.
func Ablations(cfg Config) (*AblationResult, error) {
	res := &AblationResult{}

	// State merging: counter.p4 with 12 packets is polynomial merged,
	// exponential unmerged.
	runMerge := func(merge bool) (time.Duration, bool) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), cfg.BaselineBudget*4)
		defer cancel()
		prog := programs.Counter(16)
		e := sym.NewEngine(prog, sym.Options{
			Greybox: true, Merge: merge, MaxPaths: cfg.BaselineMaxPaths, Ctx: ctx,
		})
		counter := mc.NewCounter(e.Space, nil)
		paths := e.Initial()
		var err error
		for k := 0; k < 12; k++ {
			paths, err = e.Step(paths, k)
			if err != nil {
				return time.Since(start), true
			}
			if merge {
				paths = sym.Merge(paths, counter)
			}
		}
		return time.Since(start), false
	}
	onT, _ := runMerge(true)
	offT, offTO := runMerge(false)
	res.Rows = append(res.Rows, AblationRow{
		Name: "state merging", OnTime: onT, OffTime: offT, OffTimedOut: offTO,
		Note: "12-packet counter.p4: merged states grow linearly, unmerged 2^t",
	})

	// Telescoping: Blink's reroute estimate exists only with it.
	runTele := func(disable bool) (time.Duration, string) {
		start := time.Now()
		prof, err := core.ProbProf(programs.Blink(), nil, core.Options{
			Seed: cfg.Seed, MaxIters: 8, DisableTelescope: disable,
			DisableSampling: true, Timeout: cfg.ProfileTimeout,
		})
		if err != nil {
			return time.Since(start), "error"
		}
		rr, _ := prof.ByLabel("reroute")
		return time.Since(start), rr.P.String()
	}
	onT, onEst := runTele(false)
	offT, offEst := runTele(true)
	res.Rows = append(res.Rows, AblationRow{
		Name: "telescoping", OnTime: onT, OffTime: offT,
		Note: fmt.Sprintf("Pr[reroute]: on=%s, off=%s", onEst, offEst),
	})

	// Greybox analysis: symbolic arrays explode with structure size.
	runGrey := func(grey bool) (time.Duration, bool) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), cfg.BaselineBudget*4)
		defer cancel()
		prog := programs.HTable(1024, 8)
		e := sym.NewEngine(prog, sym.Options{
			Greybox: grey, MaxPaths: cfg.BaselineMaxPaths, Ctx: ctx,
		})
		paths := e.Initial()
		var err error
		for k := 0; k < 5; k++ {
			paths, err = e.Step(paths, k)
			if err != nil {
				return time.Since(start), true
			}
		}
		return time.Since(start), false
	}
	onT, _ = runGrey(true)
	offT, offTO = runGrey(false)
	res.Rows = append(res.Rows, AblationRow{
		Name: "greybox data stores", OnTime: onT, OffTime: offT, OffTimedOut: offTO,
		Note: "5 packets over a 2^10-slot hash table",
	})

	// Exact counting vs Monte Carlo on a coupled pair.
	space := solver.NewSpace(ir.StdFields)
	cs := []solver.Constraint{
		solver.NewCmp(ir.CmpLt,
			solver.VarExpr(solver.Var{Pkt: 0, Field: "src_port"}),
			solver.VarExpr(solver.Var{Pkt: 0, Field: "dst_port"})),
	}
	runCount := func(forceMC bool) time.Duration {
		start := time.Now()
		for i := 0; i < 50; i++ {
			c := mc.NewCounter(space, nil)
			c.ForceMC = forceMC
			c.Seed = int64(i)
			_ = c.ProbOf(cs)
		}
		return time.Since(start)
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "exact pair counting", OnTime: runCount(false), OffTime: runCount(true),
		Note: "50 counts of P(src_port < dst_port); off = Monte Carlo",
	})

	// Oracle query cache.
	tr := trace.Generate(trace.GenOptions{Seed: cfg.Seed, Packets: 20000})
	q := trace.NewQueryProcessor(tr)
	runCache := func(cached bool) time.Duration {
		start := time.Now()
		for i := 0; i < 20; i++ {
			if cached {
				q.FieldDist("proto")
			} else {
				q.FieldDistNoCache("proto")
			}
		}
		return time.Since(start)
	}
	res.Rows = append(res.Rows, AblationRow{
		Name: "oracle query cache", OnTime: runCache(true), OffTime: runCache(false),
		Note: "20 marginal queries against a 20k-packet trace",
	})

	return res, nil
}
