package serve

import (
	"bytes"
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Job is one unit of service work: a normalized spec plus its lifecycle
// state. A job is created per unique fingerprint; concurrent identical
// submissions share the one Job (single-flight).
type Job struct {
	ID   string
	Spec JobSpec // normalized

	seq uint64 // queue FIFO order within a tenant and priority

	mu        sync.Mutex
	state     JobState
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc

	// done closes on reaching a terminal state; SSE handlers select on it.
	done chan struct{}
	hub  *hub

	// tracer records the job's span tree (submit → queue → run → persist,
	// with the profiler's spans nested inside) and streams its text lines to
	// the hub. It lives as long as the Job record, so /debug/trace/{id}
	// serves the trace after the run finishes.
	tracer  *obs.Tracer
	traceID string
	rootCtx context.Context // carries the root "job" span
	root    obs.Span
	queued  obs.Span
	run     obs.Span
}

// traceIDLen is how much of the content-addressed job ID names the trace.
const traceIDLen = 16

func newJob(id string, spec JobSpec, now time.Time, replayCap int) *Job {
	j := &Job{
		ID:        id,
		Spec:      spec,
		state:     StateQueued,
		submitted: now,
		done:      make(chan struct{}),
		hub:       newHub(replayCap),
	}
	j.tracer = obs.NewTracer(j.hub)
	// A propagated trace ID (the coordinator's, forwarded with the spec)
	// wins over the derived one, so spans and log lines on both sides of
	// the forwarding hop share one identifier. Absent that, the trace ID is
	// the job ID's prefix — deterministic, so retries on another node
	// produce the same trace identity.
	j.traceID = spec.TraceID
	if j.traceID == "" {
		j.traceID = id
		if len(j.traceID) > traceIDLen {
			j.traceID = j.traceID[:traceIDLen]
		}
	}
	j.tracer.SetTraceID(j.traceID)
	j.rootCtx, j.root = j.tracer.StartSpanCtx(context.Background(), "job")
	_, j.queued = j.tracer.StartSpanCtx(j.rootCtx, "queued")
	return j
}

// TraceID returns the job's request-scoped trace identifier.
func (j *Job) TraceID() string { return j.traceID }

// Tracer returns the tracer recording the job's span tree; runners open
// their spans on it, under the run span their context carries.
func (j *Job) Tracer() *obs.Tracer { return j.tracer }

// Publish appends one progress line to the job's event stream, as if the
// job's tracer had written it.
func (j *Job) Publish(line string) { j.hub.Write([]byte(line + "\n")) }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setRunning transitions queued → running, attaching the cancel function
// for the job's context. It reports false when the job was canceled while
// queued (the worker must skip it). The queued span ends and the run span
// opens here, so the exported trace shows the queue wait as its own region.
func (j *Job) setRunning(cancel context.CancelFunc, now time.Time) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	j.mu.Unlock()
	j.queued.End()
	_, j.run = j.tracer.StartSpanCtx(j.rootCtx, "run")
	return true
}

// runContext derives the context a worker executes the job under: ctx's
// cancellation and deadline, plus the job's run span for the profiler's
// spans to nest into.
func (j *Job) runContext(ctx context.Context) context.Context {
	return obs.WithSpan(ctx, j.run)
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state JobState, errMsg string, now time.Time) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	wasRunning := j.state == StateRunning
	j.state = state
	j.err = errMsg
	j.finished = now
	cancel := j.cancel
	j.mu.Unlock()
	if wasRunning {
		j.run.End()
	} else {
		j.queued.End() // canceled while queued
	}
	j.root.End()
	if cancel != nil {
		cancel()
	}
	j.hub.close()
	close(j.done)
}

// Cancel requests cancellation: a queued job becomes canceled immediately
// (workers discard it on pop); a running job has its context canceled and
// reaches the canceled state when the engine unwinds.
func (j *Job) Cancel() {
	j.mu.Lock()
	state := j.state
	cancel := j.cancel
	j.mu.Unlock()
	switch state {
	case StateQueued:
		j.finish(StateCanceled, "canceled while queued", time.Now())
	case StateRunning:
		if cancel != nil {
			cancel()
		}
	}
}

// meta snapshots the job's queue trajectory for its stored result.
func (j *Job) meta() *obs.JobMeta {
	j.mu.Lock()
	defer j.mu.Unlock()
	m := &obs.JobMeta{
		ID:          j.ID,
		TraceID:     j.traceID,
		Kind:        j.Spec.Kind,
		Priority:    j.Spec.Priority,
		SubmittedAt: timeRFC(j.submitted),
		StartedAt:   timeRFC(j.started),
	}
	if !j.started.IsZero() {
		m.WaitSec = j.started.Sub(j.submitted).Seconds()
	}
	return m
}

// Status snapshots the job for the wire.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		TraceID:     j.traceID,
		Kind:        j.Spec.Kind,
		State:       j.state,
		Priority:    j.Spec.Priority,
		Error:       j.err,
		SubmittedAt: timeRFC(j.submitted),
		StartedAt:   timeRFC(j.started),
		FinishedAt:  timeRFC(j.finished),
	}
	if !j.started.IsZero() {
		st.WaitSec = j.started.Sub(j.submitted).Seconds()
	}
	return st
}

// hub broadcasts a job's progress lines (the obs tracer output) to any
// number of SSE subscribers, buffering bounded history so late subscribers
// replay the run from the start.
type hub struct {
	mu        sync.Mutex
	replayCap int
	lines     []string
	subs      map[chan string]struct{}
	closed    bool

	// dropped counts lines discarded for slow subscribers (bounded send).
	dropped int64

	// Optional instrumentation, set by the server: lag observes each live
	// subscriber's channel backlog (in lines) per published line, dropCtr
	// counts lines dropped on full subscriber channels.
	lag     *obs.Histogram
	dropCtr *obs.Counter
}

// hubReplayCap is the default bound on the per-job replay buffer; beyond it
// only live lines reach subscribers. Profiler runs emit a handful of lines
// per iteration, so the cap is generous.
const hubReplayCap = 4096

func newHub(replayCap int) *hub {
	if replayCap <= 0 {
		replayCap = hubReplayCap
	}
	return &hub{replayCap: replayCap, subs: map[chan string]struct{}{}}
}

// Write ingests tracer output; each call carries one or more whole
// newline-terminated lines (the tracer renders a full line per call).
func (h *hub) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return len(p), nil
	}
	for _, raw := range bytes.Split(bytes.TrimRight(p, "\n"), []byte("\n")) {
		if len(raw) == 0 {
			continue
		}
		line := string(raw)
		if len(h.lines) < h.replayCap {
			h.lines = append(h.lines, line)
		}
		for ch := range h.subs {
			h.lag.Observe(float64(len(ch)))
			select {
			case ch <- line:
			default:
				h.dropped++
				h.dropCtr.Inc()
			}
		}
	}
	return len(p), nil
}

// subscribe returns a live channel plus the replay buffer accumulated so
// far. The channel is closed when the hub closes (job reached a terminal
// state).
func (h *hub) subscribe() (ch chan string, replay []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = append([]string(nil), h.lines...)
	ch = make(chan string, 256)
	if h.closed {
		close(ch)
		return ch, replay
	}
	h.subs[ch] = struct{}{}
	return ch, replay
}

func (h *hub) unsubscribe(ch chan string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}

// close ends the stream: subscribers' channels close after pending lines
// drain.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = map[chan string]struct{}{}
}
