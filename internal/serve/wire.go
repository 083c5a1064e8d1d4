// Package serve wraps the P4wn profiler pipeline in a long-running
// service: a bounded job queue (weighted-fair across tenants, by priority
// within one) with per-job deadlines and cancellation, a content-addressed
// result store with single-flight deduplication, and a JSON-over-HTTP API
// with per-job streaming progress. A Runner decides where a job's answer
// is computed: the local engine, or (internal/cluster) a fleet of other
// servers. cmd/p4wnd is the daemon front end; `p4wn
// submit|status|result|cancel` are the matching client subcommands.
package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/programs"
	"repro/internal/target"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// JobSpec is the wire form of one job submission.
type JobSpec struct {
	// Kind selects the pipeline: "profile" (default) computes the
	// probabilistic profile; "adversarial" generates a concrete packet
	// sequence exercising Target.
	Kind string `json:"kind,omitempty"`
	// Program names a zoo program; Source is inline mini-language text.
	// Exactly one must be set.
	Program string `json:"program,omitempty"`
	Source  string `json:"source,omitempty"`
	// Uniform profiles against the uniform header space instead of the
	// program's synthetic workload trace (profile jobs).
	Uniform bool `json:"uniform,omitempty"`
	// Target is the code-block label for adversarial jobs.
	Target string `json:"target,omitempty"`
	// Scale seeds Options from an eval preset ("quick", "default", "full").
	// It is mutually exclusive with a non-zero Options block, so a scaled
	// submission and the equivalent spelled-out one content-address
	// identically.
	Scale string `json:"scale,omitempty"`
	// Options are the profiler options; zero values select the documented
	// defaults (see core.WireOptions).
	Options core.WireOptions `json:"options"`
	// Priority orders the queue: higher-priority jobs run first, FIFO
	// within a priority.
	Priority int `json:"priority,omitempty"`
	// TimeoutSec bounds the whole job's wall clock (0 = server default;
	// the server clamps it to its configured maximum). Unlike the profiler
	// options, it does not contribute to the job's content address: it
	// decides whether a result is produced, never what the result is.
	TimeoutSec float64 `json:"job_timeout_sec,omitempty"`
	// Tenant names the submitting party for the queue's weighted-fair
	// scheduling and per-tenant quotas. Like Priority it is a scheduling
	// knob, excluded from the content address: the same work submitted by
	// two tenants shares one result.
	Tenant string `json:"tenant,omitempty"`
	// TraceID, when set, pins the job's trace identifier (16 lowercase hex
	// characters) instead of deriving it from the job ID. The coordinator
	// propagates its own trace ID here so worker spans and log lines join
	// the coordinator's across the forwarding hop. Excluded from the
	// content address.
	TraceID string `json:"trace_id,omitempty"`
}

// Job kinds.
const (
	KindProfile     = "profile"
	KindAdversarial = "adversarial"
)

// normalize validates the spec and folds every defaulting rule in, so all
// spellings of the same work share one canonical form.
func (s JobSpec) normalize() (JobSpec, error) {
	if s.Kind == "" {
		s.Kind = KindProfile
	}
	if s.Kind != KindProfile && s.Kind != KindAdversarial {
		return s, fmt.Errorf("unknown job kind %q", s.Kind)
	}
	if (s.Program == "") == (s.Source == "") {
		return s, fmt.Errorf("exactly one of program, source required")
	}
	if s.Program != "" {
		if _, ok := programs.ByName(s.Program); !ok {
			return s, fmt.Errorf("unknown program %q", s.Program)
		}
	}
	if s.Kind == KindAdversarial && s.Target == "" {
		return s, fmt.Errorf("adversarial jobs require a target block label")
	}
	if s.Kind == KindProfile && s.Target != "" {
		return s, fmt.Errorf("target is only meaningful for adversarial jobs")
	}
	if _, err := target.Lookup(s.Options.Target); err != nil {
		return s, err
	}
	if s.Scale != "" {
		// The device-target choice is orthogonal to the scale preset, so
		// options.target may accompany scale; any other options knob still
		// conflicts with a preset.
		rest := s.Options
		rest.Target = ""
		if rest != (core.WireOptions{}) {
			return s, fmt.Errorf("scale and options are mutually exclusive")
		}
		cfg, ok := eval.Preset(s.Scale)
		if !ok {
			return s, fmt.Errorf("unknown scale %q (quick, default, full)", s.Scale)
		}
		cfg.Target = s.Options.Target
		s.Options = core.WireFromOptions(cfg.ProfileOptions())
		s.Scale = ""
	}
	s.Options = s.Options.Normalized()
	if s.TimeoutSec < 0 {
		return s, fmt.Errorf("job_timeout_sec must be >= 0")
	}
	if s.TraceID != "" && !validTraceID(s.TraceID) {
		return s, fmt.Errorf("trace_id must be %d lowercase hex characters", traceIDLen)
	}
	return s, nil
}

// validTraceID accepts exactly the 16-lowercase-hex identifiers newJob
// derives from content addresses.
func validTraceID(id string) bool { return lowerHex(id, traceIDLen) }

// lowerHex reports whether s is exactly n lowercase hex digits.
func lowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Normalize returns the spec's canonical form, validating it along the
// way. Exported for the cluster coordinator, which must compute the same
// canonical identity a worker will before routing by it.
func (s JobSpec) Normalize() (JobSpec, error) { return s.normalize() }

// ID content-addresses a normalized spec (see id). Exported alongside
// Normalize so the coordinator shards by the exact store key.
func (s JobSpec) ID() string { return s.id() }

// fingerprint is the canonical identity of a job: exactly the inputs the
// result bytes depend on. Priority and the job timeout are excluded — they
// change scheduling, not the answer.
type fingerprint struct {
	Kind    string           `json:"kind"`
	Program string           `json:"program,omitempty"`
	Source  string           `json:"source,omitempty"`
	Uniform bool             `json:"uniform,omitempty"`
	Target  string           `json:"target,omitempty"`
	Options core.WireOptions `json:"options"`
}

// id content-addresses a normalized spec: the hex SHA-256 of its canonical
// JSON fingerprint. Identical submissions — however they were spelled —
// share one ID, one queue slot, and one stored result.
func (s JobSpec) id() string {
	data, err := json.Marshal(fingerprint{
		Kind:    s.Kind,
		Program: s.Program,
		Source:  s.Source,
		Uniform: s.Uniform,
		Target:  s.Target,
		Options: s.Options,
	})
	if err != nil {
		// fingerprint marshals plain structs; this cannot fail.
		panic("serve: fingerprint marshal: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID      string   `json:"id"`
	TraceID string   `json:"trace_id,omitempty"`
	Kind    string   `json:"kind"`
	State   JobState `json:"state"`
	// Cached marks a submission answered straight from the result store,
	// with no engine run.
	Cached      bool    `json:"cached,omitempty"`
	Priority    int     `json:"priority,omitempty"`
	Error       string  `json:"error,omitempty"`
	SubmittedAt string  `json:"submitted_at,omitempty"`
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	WaitSec     float64 `json:"wait_sec,omitempty"`
}

// NodeStats is the wire form of one daemon's load snapshot, served at
// GET /v1/stats. The cluster coordinator's heartbeat loop polls it to
// drive liveness, steal, and readiness decisions.
type NodeStats struct {
	// State is "serving" or "draining"; a draining node still finishes
	// queued work but must not receive new forwards.
	State      string `json:"state"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	JobWorkers int    `json:"job_workers"`
	Jobs       int    `json:"jobs"`
	// StoreResident is the memory-layer entry count of the result store.
	StoreResident int `json:"store_resident"`
	// Tenants is the queue's per-tenant backlog, sorted by name.
	Tenants []TenantStatus `json:"tenants,omitempty"`
}

// TenantStatus is one tenant's fair-share row.
type TenantStatus struct {
	Name    string  `json:"name"`
	Weight  float64 `json:"weight"`
	Pending int     `json:"pending"`
	// Rejected counts submissions refused by this tenant's quota.
	Rejected int64 `json:"rejected"`
}

// ReadEvents parses a job's Server-Sent Events stream (GET
// /v1/jobs/{id}/events), calling fn with each progress line until the
// terminal "done" event, whose data — the job's final state — it returns.
// A stream that ends before that event returns io.ErrUnexpectedEOF or the
// read error.
func ReadEvents(r io.Reader, fn func(line string)) (JobState, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows from 4 KiB as long lines need
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "done" {
				return JobState(data), nil
			}
			fn(data)
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// AdvResult is the stored result of an adversarial job (kind
// "adversarial"): the generated packet sequence plus the Figure 9 phase
// decomposition. Profile jobs store the obs.Report run report instead.
type AdvResult struct {
	SchemaVersion int    `json:"schema_version"`
	Kind          string `json:"kind"` // "adversarial"
	Program       string `json:"program"`
	Target        string `json:"target"`
	GeneratedAt   string `json:"generated_at,omitempty"`

	Job *obs.JobMeta `json:"job,omitempty"`

	Validated     bool           `json:"validated"`
	HasCollisions bool           `json:"has_collisions,omitempty"`
	Packets       []trace.Packet `json:"packets"`
	SymbexSec     float64        `json:"symbex_sec"`
	SolverSec     float64        `json:"solver_sec"`
	HavocSec      float64        `json:"havoc_sec"`
}

// timeRFC renders a timestamp for the wire; zero times render empty.
func timeRFC(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// advResultFrom converts a generated trace into its stored form.
func advResultFrom(adv *testgen.AdvTrace, schemaVersion int) *AdvResult {
	return &AdvResult{
		SchemaVersion: schemaVersion,
		Kind:          KindAdversarial,
		Program:       adv.Program,
		Target:        adv.Label,
		Validated:     adv.Validated,
		HasCollisions: adv.HasCollisions,
		Packets:       adv.Packets,
		SymbexSec:     adv.Decomp.Symbex.Seconds(),
		SolverSec:     adv.Decomp.Solver.Seconds(),
		HavocSec:      adv.Decomp.Havoc.Seconds(),
	}
}
