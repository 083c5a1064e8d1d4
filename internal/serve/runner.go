package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/p4c"
	"repro/internal/programs"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// Runner computes job results for a Server. The Server owns everything
// else about a job — submission, the job table, the queue, the store, the
// workers, drain, the HTTP API and the event stream — so a runner only
// decides where the answer comes from: the local engine (New), or a fleet
// of other servers (the cluster coordinator).
type Runner interface {
	// Namespace prefixes the server's metric names ("serve", "cluster").
	Namespace() string
	// Run computes a job's result bytes. ctx is canceled when the job is,
	// and carries the job's run span for the runner's spans to nest in.
	Run(ctx context.Context, j *Job) ([]byte, error)
	// Remote fetches an API path (status, result or trace) for a job the
	// server has no record or stored result of, from wherever else it may
	// live. ok is false when there is nowhere else to look.
	Remote(ctx context.Context, id, path string) (data []byte, ok bool)
	// Stop ends the runner's background work; the server calls it once
	// its last worker has parked.
	Stop()
}

// engine runs jobs on the in-process profiler and adversarial generator.
type engine struct {
	cfg Config
}

func (engine) Namespace() string                                     { return "serve" }
func (engine) Remote(context.Context, string, string) ([]byte, bool) { return nil, false }
func (engine) Stop()                                                 {}

// Run executes the job's pipeline under its deadline and returns the
// result JSON to store.
func (e engine) Run(ctx context.Context, j *Job) ([]byte, error) {
	timeout := e.cfg.DefaultJobTimeout
	if j.Spec.TimeoutSec > 0 {
		timeout = time.Duration(j.Spec.TimeoutSec * float64(time.Second))
	}
	if timeout > e.cfg.MaxJobTimeout {
		timeout = e.cfg.MaxJobTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	data, err := e.execute(ctx, j)
	if err != nil && ctx.Err() == context.DeadlineExceeded {
		return nil, fmt.Errorf("job timeout (%s) exceeded", timeout)
	}
	return data, err
}

func (e engine) execute(ctx context.Context, j *Job) ([]byte, error) {
	prog, meta, err := buildProgram(j.Spec)
	if err != nil {
		return nil, err
	}
	var res any
	switch j.Spec.Kind {
	case KindAdversarial:
		res, err = runAdversarial(ctx, j, prog)
	default:
		res, err = e.runProfile(ctx, j, prog, meta)
	}
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// buildProgram resolves the spec's program or inline source. meta is nil
// for inline sources.
func buildProgram(spec JobSpec) (*ir.Program, *programs.Meta, error) {
	if spec.Source != "" {
		prog, err := p4c.Parse(spec.Source)
		if err != nil {
			return nil, nil, fmt.Errorf("compile source: %w", err)
		}
		return prog, nil, nil
	}
	m, ok := programs.ByName(spec.Program)
	if !ok {
		return nil, nil, fmt.Errorf("unknown program %q", spec.Program)
	}
	return m.Build(), &m, nil
}

// oracleFor mirrors the CLI's workload selection so served profiles are
// byte-identical to `p4wn profile` for the same inputs: zoo programs use
// their registered workload, inline sources the default synthetic trace,
// and uniform submissions no oracle at all.
func oracleFor(spec JobSpec, meta *programs.Meta) dist.Oracle {
	if spec.Uniform {
		return nil
	}
	gen := trace.GenOptions{Seed: spec.Options.Seed}
	if meta != nil {
		gen = meta.Workload(spec.Options.Seed)
	}
	return trace.NewQueryProcessor(trace.Generate(gen))
}

// runProfile executes a profile job into the versioned run report with
// job metadata attached.
func (e engine) runProfile(ctx context.Context, j *Job, prog *ir.Program, meta *programs.Meta) (*obs.Report, error) {
	opt := j.Spec.Options.Options()
	// The job's own tracer runs the profile, so engine spans nest under the
	// job's "run" span and /debug/trace/{id} exports one connected tree.
	opt.Context = ctx
	opt.Workers = e.cfg.ProfWorkers
	opt.Tracer = j.tracer
	if e.cfg.MaxPathsQuota > 0 && opt.MaxPaths > e.cfg.MaxPathsQuota {
		opt.MaxPaths = e.cfg.MaxPathsQuota
	}
	prof, err := core.ProbProf(prog, oracleFor(j.Spec, meta), opt)
	if err != nil {
		return nil, err
	}
	rep := core.NewReport(prof, opt)
	core.AttachIFC(rep, prog, prof)
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Job = j.meta()
	return rep, nil
}

// runAdversarial executes an adversarial-generation job; the job context
// threads through directed symbex, the solver, and havocing, so Cancel
// stops a solving job mid-search.
func runAdversarial(ctx context.Context, j *Job, prog *ir.Program) (*AdvResult, error) {
	node := prog.NodeByLabel(j.Spec.Target)
	if node == nil {
		return nil, fmt.Errorf("program %q has no block labeled %q", prog.Name, j.Spec.Target)
	}
	adv, err := testgen.Generate(prog, node.ID, testgen.Options{
		Seed:   j.Spec.Options.Seed,
		Ctx:    ctx,
		Target: j.Spec.Options.Target,
	})
	if err != nil {
		return nil, err
	}
	res := advResultFrom(adv, obs.SchemaVersion)
	res.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	res.Job = j.meta()
	return res, nil
}
