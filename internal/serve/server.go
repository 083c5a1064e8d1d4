package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config tunes the profiling service.
type Config struct {
	// StoreDir roots the content-addressed result store; empty keeps
	// results in memory only.
	StoreDir string
	// StoreCap bounds the store's in-memory LRU layer (default 256).
	StoreCap int
	// QueueDepth bounds queued jobs; past it submissions get 429 +
	// Retry-After (default 64).
	QueueDepth int
	// TenantQuota bounds each tenant's queued jobs, also with 429 +
	// Retry-After (default QueueDepth: only the queue bound applies).
	TenantQuota int
	// TenantWeights sets the tenants' fair-share weights; unlisted tenants
	// weigh 1.
	TenantWeights map[string]float64
	// JobWorkers is how many jobs run concurrently (default 2).
	JobWorkers int
	// ProfWorkers is each job's profiler parallelism (0 = GOMAXPROCS).
	// Profiles are byte-identical for every value, so it is a throughput
	// knob, never a correctness one.
	ProfWorkers int
	// DefaultJobTimeout bounds jobs that do not ask for a timeout
	// (default 5m); MaxJobTimeout clamps jobs that do (default 30m).
	DefaultJobTimeout time.Duration
	MaxJobTimeout     time.Duration
	// MaxPathsQuota caps the per-job MaxPaths option (default 1<<20;
	// negative disables the cap). It only binds when a submission asks for
	// more than the quota, so default-option jobs stay byte-identical to
	// offline runs.
	MaxPathsQuota int
	// ReplayCap bounds each job's SSE replay buffer in lines (default 4096);
	// past it late subscribers only see live lines.
	ReplayCap int
	// Registry receives the service counters and views; a fresh registry
	// is created when nil.
	Registry *obs.Registry
	// Logger receives the daemon's structured log lines; every record tagged
	// with a job carries job_id and trace_id attributes. Nil discards.
	Logger *slog.Logger
}

// WithDefaults fills every unset field with its documented default.
func (c Config) WithDefaults() Config {
	if c.StoreCap == 0 {
		c.StoreCap = 256
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = 2
	}
	if c.DefaultJobTimeout == 0 {
		c.DefaultJobTimeout = 5 * time.Minute
	}
	if c.MaxJobTimeout == 0 {
		c.MaxJobTimeout = 30 * time.Minute
	}
	if c.MaxPathsQuota == 0 {
		c.MaxPathsQuota = 1 << 20
	}
	if c.ReplayCap == 0 {
		c.ReplayCap = hubReplayCap
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the job service: it owns the queue, the store, and the pool
// of workers that hand jobs to its Runner, and serves the JSON HTTP API.
type Server struct {
	cfg    Config
	runner Runner
	ns     string // metric namespace, fixed by the runner
	reg    *obs.Registry
	log    *slog.Logger
	store  *Store
	queue  *queue

	mu   sync.Mutex
	jobs map[string]*Job

	draining bool

	baseCtx  context.Context
	stopAll  context.CancelFunc
	workerWG sync.WaitGroup
	stopOnce sync.Once

	// testHold, when non-nil, gates job execution: each worker receives
	// from it before running a job. Tests use it to pile up concurrent
	// identical submissions behind one in-flight job.
	testHold chan struct{}
	// testFault, when non-nil, runs at the head of each job run; tests use
	// it to inject engine panics and verify per-job isolation.
	testFault func(spec JobSpec)
}

// jobsCap bounds the in-memory job table; terminal jobs are discarded
// oldest-first past it (their results live on in the store).
const jobsCap = 1024

// New builds a Server that runs jobs on the local engine and starts its
// workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	return NewWithRunner(cfg, engine{cfg})
}

// NewWithRunner builds a Server whose jobs run on r and starts its workers.
func NewWithRunner(cfg Config, r Runner) (*Server, error) {
	cfg = cfg.WithDefaults()
	store, err := OpenStore(cfg.StoreDir, cfg.StoreCap)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		runner:  r,
		ns:      r.Namespace(),
		reg:     cfg.Registry,
		log:     cfg.Logger,
		store:   store,
		queue:   newQueue(cfg.QueueDepth, cfg.TenantQuota, cfg.TenantWeights),
		jobs:    map[string]*Job{},
		baseCtx: ctx,
		stopAll: cancel,
	}
	s.reg.RegisterView("store", store.Metrics)
	s.reg.RegisterView(s.ns, s.viewMetrics)
	s.reg.SetHelp(s.ns+".queue_wait_seconds", "Time jobs spend queued before running, by outcome.")
	s.reg.SetHelp(s.ns+".job_run_seconds", "Job run duration from start to terminal state, by outcome.")
	s.reg.SetHelp(s.ns+".sse_lag_lines", "Per-line backlog of live SSE subscriber channels.")
	s.reg.SetHelp(s.ns+".store_hit_ratio", "Fraction of store lookups served from cache.")
	s.reg.SetHelp(s.ns+".quota_rejections", "Submissions refused by a tenant's queue quota.")
	for i := 0; i < cfg.JobWorkers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the result store (the daemon logs its directory).
func (s *Server) Store() *Store { return s.store }

// Registry exposes the metrics registry backing /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// counter returns the named counter in the server's namespace.
func (s *Server) counter(name string) *obs.Counter {
	return s.reg.Counter(s.ns + "." + name)
}

// viewMetrics is the namespace's gauge view.
func (s *Server) viewMetrics() map[string]float64 {
	st := s.Stats()
	out := map[string]float64{
		"queue_depth": float64(st.QueueDepth),
		"jobs":        float64(st.Jobs),
		"running":     float64(st.Running),
		"draining":    0,
	}
	if st.State == "draining" {
		out["draining"] = 1
	}
	// Store hit ratio as a gauge: hits over lookups, 0 before any traffic.
	sm := s.store.Metrics()
	if total := sm["hits_total"] + sm["misses"]; total > 0 {
		out["store_hit_ratio"] = sm["hits_total"] / total
	} else {
		out["store_hit_ratio"] = 0
	}
	return out
}

// Submit runs the single-flight submission flow shared by the HTTP handler
// and in-process callers. The returned code is the HTTP status the outcome
// maps to: 200 (served from the store or deduplicated onto an existing
// job), 202 (newly enqueued), 400 (bad spec), 429 (queue or tenant quota
// full), 503 (draining).
func (s *Server) Submit(spec JobSpec) (JobStatus, int, error) {
	norm, err := spec.normalize()
	if err != nil {
		return JobStatus{}, http.StatusBadRequest, err
	}
	id := norm.id()
	s.counter("submitted").Inc()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.counter("rejected_draining").Inc()
		return JobStatus{}, http.StatusServiceUnavailable, ErrDraining
	}
	if j := s.liveJobLocked(id); j != nil {
		// Single-flight: an identical job is queued, running, or done.
		st := j.Status()
		if st.State == StateDone {
			st.Cached = true
			s.counter("store_hits").Inc()
		} else {
			s.counter("dedup_inflight").Inc()
		}
		s.mu.Unlock()
		return st, http.StatusOK, nil
	}
	s.mu.Unlock()

	// Replay a stored result: identical work was finished in this or an
	// earlier life of the service, here or wherever the runner looks.
	data, ok := s.store.Get(id)
	if !ok {
		data, ok = s.fetchRemote(s.baseCtx, id)
	}
	if ok {
		s.counter("store_hits").Inc()
		st := storedStatus(id, data)
		st.Priority = norm.Priority
		return st, http.StatusOK, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.counter("rejected_draining").Inc()
		return JobStatus{}, http.StatusServiceUnavailable, ErrDraining
	}
	// Re-check under the lock: a racing identical submission may have won.
	if j := s.liveJobLocked(id); j != nil {
		s.counter("dedup_inflight").Inc()
		return j.Status(), http.StatusOK, nil
	}
	j := newJob(id, norm, time.Now(), s.cfg.ReplayCap)
	j.hub.lag = s.reg.Histogram(s.ns + ".sse_lag_lines")
	j.hub.dropCtr = s.counter("sse_dropped_lines")
	if err := s.queue.push(j); err != nil {
		code := http.StatusServiceUnavailable
		switch err {
		case ErrQueueFull:
			code = http.StatusTooManyRequests
			s.counter("rejected_full").Inc()
		case ErrTenantQuota:
			code = http.StatusTooManyRequests
			s.reg.Counter(obs.Labeled(s.ns+".quota_rejections", "tenant", tenantLabel(norm.Tenant))).Inc()
		}
		return JobStatus{}, code, err
	}
	s.jobs[id] = j
	s.trimJobsLocked()
	s.counter("enqueued").Inc()
	s.jobLog(j).Info("job enqueued",
		"kind", j.Spec.Kind, "priority", j.Spec.Priority, "tenant", j.Spec.Tenant,
		"queue_depth", s.queue.depth())
	return j.Status(), http.StatusAccepted, nil
}

// tenantLabel names the default tenant in metrics ("" is not a useful
// label value).
func tenantLabel(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// liveJobLocked returns the job record a submission of id joins: one that
// is queued, running or done. Callers hold s.mu.
func (s *Server) liveJobLocked(id string) *Job {
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	if st := j.State(); st == StateFailed || st == StateCanceled {
		return nil
	}
	return j
}

// fetchRemote answers a store miss with the runner's copy of the result,
// keeping it in the store.
func (s *Server) fetchRemote(ctx context.Context, id string) ([]byte, bool) {
	if !validID(id) {
		return nil, false
	}
	data, ok := s.runner.Remote(ctx, id, "/v1/jobs/"+id+"/result")
	if !ok || !json.Valid(data) {
		return nil, false
	}
	if err := s.store.Put(id, data); err != nil {
		return nil, false
	}
	return data, true
}

// storedStatus is the status of a job answered from a stored result. The
// result's job block names the trace and kind of the run that produced it.
func storedStatus(id string, data []byte) JobStatus {
	var res struct {
		Kind string       `json:"kind"`
		Job  *obs.JobMeta `json:"job"`
	}
	st := JobStatus{ID: id, TraceID: id[:traceIDLen], State: StateDone, Cached: true}
	if json.Unmarshal(data, &res) == nil {
		st.Kind = res.Kind
		if res.Job != nil {
			st.TraceID, st.Kind = res.Job.TraceID, res.Job.Kind
		}
	}
	return st
}

// jobLog returns the server logger scoped to a job: every record carries
// the job and trace identifiers.
func (s *Server) jobLog(j *Job) *slog.Logger {
	return s.log.With("job_id", j.ID, "trace_id", j.traceID)
}

// trimJobsLocked discards the oldest terminal jobs past jobsCap; callers
// hold s.mu. Results remain addressable through the store.
func (s *Server) trimJobsLocked() {
	if len(s.jobs) <= jobsCap {
		return
	}
	type aged struct {
		id string
		at time.Time
	}
	var terminal []aged
	for id, j := range s.jobs {
		j.mu.Lock()
		if j.state.terminal() {
			terminal = append(terminal, aged{id, j.finished})
		}
		j.mu.Unlock()
	}
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].at.Before(terminal[k].at) })
	for _, t := range terminal {
		if len(s.jobs) <= jobsCap {
			break
		}
		delete(s.jobs, t.id)
	}
}

// Job returns the in-memory job record for an ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker pulls jobs off the queue until the queue closes and drains.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		if hold := s.testHold; hold != nil {
			<-hold
		}
		s.runJob(j)
	}
}

// runJob hands one job to the runner with panic isolation — a panicking
// runner fails the job, never the daemon — and stores its result.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	started := time.Now()
	if !j.setRunning(cancel, started) {
		// Canceled while queued: the wait still ended, just not in a run.
		s.reg.Histogram(s.ns + `.queue_wait_seconds{outcome="canceled"}`).
			Observe(started.Sub(j.submitted).Seconds())
		return
	}
	s.counter("jobs_run").Inc()
	s.reg.Histogram(s.ns + `.queue_wait_seconds{outcome="run"}`).
		Observe(started.Sub(j.submitted).Seconds())
	s.jobLog(j).Info("job started",
		"kind", j.Spec.Kind, "wait_sec", started.Sub(j.submitted).Seconds())

	finish := func(state JobState, errMsg, outcome string) {
		now := time.Now()
		dur := now.Sub(started)
		s.reg.Histogram(s.ns + `.job_run_seconds{outcome="` + outcome + `"}`).
			Observe(dur.Seconds())
		// Log before finishing: waiters on the job see its finished line.
		lg := s.jobLog(j)
		if errMsg == "" {
			lg.Info("job finished", "outcome", outcome, "run_sec", dur.Seconds())
		} else {
			// Panic stacks stay on the job status; the log gets line one.
			first, _, _ := strings.Cut(errMsg, "\n")
			lg.Warn("job finished", "outcome", outcome, "run_sec", dur.Seconds(), "error", first)
		}
		j.finish(state, errMsg, now)
	}

	defer func() {
		if rec := recover(); rec != nil {
			s.counter("panics").Inc()
			s.counter("jobs_failed").Inc()
			finish(StateFailed, fmt.Sprintf("panic: %v\n%s", rec, debug.Stack()), "failed")
		}
	}()

	if s.testFault != nil {
		s.testFault(j.Spec)
	}
	data, err := s.runner.Run(j.runContext(ctx), j)
	switch {
	case err == nil:
		if perr := s.persist(j, data); perr != nil {
			s.counter("jobs_failed").Inc()
			finish(StateFailed, "persist result: "+perr.Error(), "failed")
			return
		}
		s.counter("jobs_done").Inc()
		finish(StateDone, "", "done")
	case ctx.Err() == context.Canceled:
		s.counter("jobs_canceled").Inc()
		finish(StateCanceled, "canceled", "canceled")
	default:
		s.counter("jobs_failed").Inc()
		finish(StateFailed, err.Error(), "failed")
	}
}

// persist writes the job's result into the content-addressed store under
// its own span, so trace exports show store latency next to run time.
func (s *Server) persist(j *Job, data []byte) error {
	_, span := j.tracer.StartSpanCtx(j.runContext(context.Background()), "persist")
	span.Annotate(obs.F("bytes", float64(len(data))))
	err := s.store.Put(j.ID, data)
	span.End()
	return err
}

// Draining reports whether the server has begun its graceful drain.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain performs the graceful shutdown: stop accepting submissions, let
// workers finish everything queued and in flight (results are stored as
// usual), and return when the last worker parks. If ctx expires first, the
// remaining jobs are hard-canceled and Drain returns ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.close()
	s.log.Info("drain started", "queue_depth", s.queue.depth())

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	defer s.stop()
	select {
	case <-done:
		s.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		s.stopAll() // cancels every in-flight job context
		<-done
		s.log.Warn("drain deadline hit; in-flight jobs canceled")
		return ctx.Err()
	}
}

// Close hard-stops the server (tests): cancel everything and wait.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.close()
	s.stopAll()
	s.workerWG.Wait()
	s.stop()
}

// stop releases the runner once every worker has parked.
func (s *Server) stop() {
	s.stopOnce.Do(func() {
		s.stopAll()
		s.runner.Stop()
	})
}

// Handler returns the service mux: the job API plus the observability
// endpoints (/metrics, expvar, pprof) on the same listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleLive)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	obs.Mount(mux, s.reg)
	return mux
}

// WriteJSON writes v as the indented JSON body of a response with the
// given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// notFound is the 404 every job route answers for an unknown ID.
func notFound(w http.ResponseWriter, id string) {
	WriteJSON(w, http.StatusNotFound, errorBody{"unknown job " + id})
}

// relay answers a request about a job this server has no record of with
// the runner's copy of the same path; it reports false when there is none.
func (s *Server) relay(w http.ResponseWriter, r *http.Request) bool {
	id := r.PathValue("id")
	if !validID(id) {
		return false
	}
	data, ok := s.runner.Remote(r.Context(), id, r.URL.Path)
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(data)
	return true
}

// handleTrace exports a job's span tree as Chrome trace_event JSON, ready
// for chrome://tracing or https://ui.perfetto.dev.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		if !s.relay(w, r) {
			notFound(w, id)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="trace-`+j.traceID+`.json"`)
	j.tracer.WriteChromeTrace(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	state := "serving"
	if s.Draining() {
		state = "draining"
	}
	WriteJSON(w, http.StatusOK, map[string]string{"state": state})
}

// handleLive is the liveness probe: 200 for as long as the process can
// answer HTTP at all, draining included. Orchestrators restart on failure
// here, so it must never report drain as death.
func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"state": "ok"})
}

// handleReady is the readiness probe: 200 while accepting submissions, 503
// once the drain barrier is down. Load balancers and the cluster
// coordinator stop routing new work on the first 503 while in-flight jobs
// finish behind it.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"state": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"state": "serving"})
}

// Stats snapshots the server's load (GET /v1/stats, the coordinator
// heartbeat).
func (s *Server) Stats() NodeStats {
	s.mu.Lock()
	jobs := len(s.jobs)
	running := 0
	for _, j := range s.jobs {
		if j.State() == StateRunning {
			running++
		}
	}
	draining := s.draining
	s.mu.Unlock()
	st := NodeStats{
		State:         "serving",
		QueueDepth:    s.queue.depth(),
		Running:       running,
		JobWorkers:    s.cfg.JobWorkers,
		Jobs:          jobs,
		StoreResident: s.store.Resident(),
		Tenants:       s.queue.tenantSnapshot(),
	}
	if draining {
		st.State = "draining"
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteJSON(w, http.StatusBadRequest, errorBody{"decode job spec: " + err.Error()})
		return
	}
	st, code, err := s.Submit(spec)
	if err != nil {
		if code == http.StatusTooManyRequests {
			// Backpressure: tell clients when to come back.
			w.Header().Set("Retry-After", "1")
		}
		WriteJSON(w, code, errorBody{err.Error()})
		return
	}
	WriteJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		statuses = append(statuses, j.Status())
	}
	s.mu.Unlock()
	sort.Slice(statuses, func(i, k int) bool {
		if statuses[i].SubmittedAt != statuses[k].SubmittedAt {
			return statuses[i].SubmittedAt < statuses[k].SubmittedAt
		}
		return statuses[i].ID < statuses[k].ID
	})
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.Job(id); ok {
		WriteJSON(w, http.StatusOK, j.Status())
		return
	}
	// A finished job from an earlier life of the service.
	if data, ok := s.store.Get(id); ok {
		WriteJSON(w, http.StatusOK, storedStatus(id, data))
		return
	}
	if !s.relay(w, r) {
		notFound(w, id)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		notFound(w, id)
		return
	}
	j.Cancel()
	WriteJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, ok := s.store.Get(id)
	j, known := s.Job(id)
	if !ok && known {
		switch st := j.Status(); st.State {
		case StateQueued, StateRunning:
			WriteJSON(w, http.StatusAccepted, st) // not ready yet; poll again
			return
		case StateCanceled:
			WriteJSON(w, http.StatusGone, st)
			return
		case StateFailed:
			WriteJSON(w, http.StatusInternalServerError, st)
			return
		}
	}
	if !ok {
		data, ok = s.fetchRemote(r.Context(), id)
	}
	switch {
	case ok:
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
	case known:
		// Done but missing from the store: evicted from a memory-only
		// store and out of the runner's reach too.
		WriteJSON(w, http.StatusInternalServerError, errorBody{"result missing for job " + id})
	default:
		notFound(w, id)
	}
}

// EventKeepAlive is how often an idle event stream carries an SSE comment,
// so a reader can tell a quiet job from a dead connection.
const EventKeepAlive = 5 * time.Second

// handleEvents streams the job's progress lines as Server-Sent Events:
// every tracer line is one "data:" event, and a final "done" event carries
// the terminal state. Late subscribers replay the full history first.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		notFound(w, id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, errorBody{"streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, replay := j.hub.subscribe()
	defer j.hub.unsubscribe(ch)
	for _, line := range replay {
		fmt.Fprintf(w, "data: %s\n\n", line)
	}
	flusher.Flush()

	keepAlive := time.NewTicker(EventKeepAlive)
	defer keepAlive.Stop()
	for {
		select {
		case <-keepAlive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case line, open := <-ch:
			if !open {
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", j.State())
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
