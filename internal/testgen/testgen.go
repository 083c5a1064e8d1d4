// Package testgen generates concrete packet sequences that trigger target
// code blocks — the adversarial-testing workflow of paper §3.5 and §5.3.
//
// Generation runs in three phases whose times are reported separately
// (Figure 9's decomposition):
//
//   - directed symbolic execution finds a symbolic path plan reaching the
//     target, preferring CFG-closer branches; counter-guarded deep targets
//     use the telescoped periodic pattern stretched to the threshold;
//   - the SAT/SMT solver turns the accumulated path constraints into
//     concrete header values;
//   - havocing reconciles greybox data-store arms with concrete key
//     material (fresh keys for empty arms, repeated keys for hits, CRC
//     collision search for collisions) and validates the sequence on the
//     concrete interpreter.
package testgen

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/ir"
	"repro/internal/sym"
	"repro/internal/target"
	"repro/internal/trace"
)

// Options tunes generation.
type Options struct {
	Seed int64
	// MaxSeqLen bounds the directed-symbex sequence length (default 8).
	MaxSeqLen int
	// Beam is the beam width of directed exploration (default 128).
	Beam int
	// Retries bounds havoc/validation retries (default 8).
	Retries int
	// Slack extends stretched guard plans beyond the threshold (default 4).
	Slack int
	// Ctx cancels generation end to end: directed/stretched symbolic
	// exploration checks it at every fork point, the solver once per
	// restart (and stride-checked inside its repair loop), and the havoc
	// phase's CRC collision search every 64 probes. A canceled Generate
	// returns the context's error. Nil means no cancellation.
	Ctx context.Context
	// Target names the device model the generated sequence must work
	// against ("idealized" when empty; unknown names are an error):
	// directed exploration, havocing and the validation replay all run
	// against the program as that model lowers it, so a trace is only
	// reported Validated when it triggers the block on that device.
	Target string
}

// ctx returns the options context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

func (o Options) withDefaults() Options {
	if o.MaxSeqLen == 0 {
		o.MaxSeqLen = 8
	}
	if o.Beam == 0 {
		o.Beam = 128
	}
	if o.Retries == 0 {
		o.Retries = 8
	}
	if o.Slack == 0 {
		o.Slack = 4
	}
	return o
}

// Decomposition reports where generation time went (Figure 9).
type Decomposition struct {
	Symbex time.Duration
	Solver time.Duration
	Havoc  time.Duration
}

// Total returns the summed phase time.
func (d Decomposition) Total() time.Duration { return d.Symbex + d.Solver + d.Havoc }

// FreshField marks a packet field havocing chose freshly (a new flow/key);
// workload amplification may rotate it per cycle to keep producing new
// state (new sources, new cold keys).
type FreshField struct {
	Pkt   int
	Field string
}

// AdvTrace is one generated adversarial test input.
type AdvTrace struct {
	Program string
	Target  int
	Label   string
	Packets []trace.Packet
	Decomp  Decomposition
	// FreshFields lists fields that may be rotated per amplification cycle.
	FreshFields []FreshField
	// HasCollisions marks traces containing CRC collision pairs, whose key
	// material must not be perturbed during amplification.
	HasCollisions bool
	// Validated is true when replaying Packets on a fresh DUT visits the
	// target block.
	Validated bool
}

// ErrNotFound is returned when no plan reaching the target was found.
var ErrNotFound = errors.New("testgen: no feasible path to target found")

// Generate produces a concrete packet sequence that exercises the CFG
// node of the program with ID node.
func Generate(prog *ir.Program, node int, opt Options) (*AdvTrace, error) {
	opt = opt.withDefaults()
	model, err := target.Lookup(opt.Target)
	if err != nil {
		return nil, fmt.Errorf("testgen: %w", err)
	}
	if node < 0 || node >= len(prog.Nodes()) {
		return nil, fmt.Errorf("testgen: target node %d out of range", node)
	}
	out := &AdvTrace{Program: prog.Name, Target: node, Label: prog.Node(node).Label}

	// Counter-guarded deep targets take the telescoped stretch plan;
	// everything else goes through directed symbex.
	var plan *pathPlan
	symStart := time.Now()
	if g, ok := guardOf(prog, node); ok && g.RepetitionsNeeded(1) > uint64(opt.MaxSeqLen) {
		plan, err = stretchPlan(prog, g, node, model, opt)
	} else {
		plan, err = directedPlan(prog, node, model, opt)
	}
	out.Decomp.Symbex = time.Since(symStart)
	if err != nil {
		return out, err
	}

	// Solve + havoc with validation retries. The per-phase context checks
	// make the retry loop stop at the first canceled phase instead of
	// burning the remaining retries on doomed solves.
	for try := 0; try < opt.Retries; try++ {
		if err := opt.ctx().Err(); err != nil {
			return out, err
		}
		trySeed := opt.Seed + int64(try*7919)
		solveStart := time.Now()
		pkts, ok := solvePhase(opt.ctx(), prog, plan, trySeed)
		out.Decomp.Solver += time.Since(solveStart)
		if !ok {
			continue
		}
		havocStart := time.Now()
		// Havoc searches slots and collisions in the store sizes the
		// device holds: the plan engine's lowered program.
		freshFields, hasCollisions := havocPhase(opt.ctx(), plan.Engine.Prog, plan, pkts, trySeed)
		valid := validate(prog, pkts, node, model)
		out.Decomp.Havoc += time.Since(havocStart)
		if valid {
			out.Packets = pkts
			out.FreshFields = freshFields
			out.HasCollisions = hasCollisions
			out.Validated = true
			return out, nil
		}
		// Keep the best-effort sequence even when unvalidated.
		if out.Packets == nil {
			out.Packets = pkts
		}
	}
	if err := opt.ctx().Err(); err != nil {
		return out, err
	}
	if out.Packets == nil {
		return out, ErrNotFound
	}
	return out, nil
}

// guardOf reports whether node lies inside a counter-guarded block.
func guardOf(prog *ir.Program, node int) (core.Guard, bool) {
	for _, g := range core.FindGuards(prog) {
		for _, b := range ir.Blocks(g.Node) {
			if b.ID == node {
				return g, true
			}
		}
	}
	return core.Guard{}, false
}

// validate replays a candidate sequence on a fresh concrete switch and
// checks that the target block executes.
func validate(prog *ir.Program, pkts []trace.Packet, node int, model *target.Model) bool {
	sw := dut.New(prog, dut.Config{Target: model})
	hit := false
	sw.VisitHook = func(id int) {
		if id == node {
			hit = true
		}
	}
	for i := range pkts {
		sw.Process(&pkts[i])
	}
	return hit
}

// pathPlan is the symbolic skeleton of a test sequence.
type pathPlan struct {
	// Length in packets.
	Length int
	// Path carries the accumulated constraints and greybox choices.
	Path *sym.Path
	// Engine provides the variable space for solving.
	Engine *sym.Engine
	// RepeatFrom/RepeatTo mark a packet range that concretize replicates
	// field-wise from the previous period (used by stretched guard plans
	// for constraints like "same seq as previous packet").
	CopyFields map[int][]fieldCopy
}

// fieldCopy instructs packet Pkt to copy field Field from packet From.
type fieldCopy struct {
	Field string
	From  int
}
