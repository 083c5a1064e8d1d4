package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/p4c"
)

// synGuardSrc loads the quickstart example program; tests share it so the
// served-vs-offline comparison exercises the same source the e2e smoke
// script uses.
func synGuardSrc(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../examples/programs/syn_guard.p4w")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
}

// waitDone blocks on the job's terminal signal.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never reached a terminal state (now %s)", j.ID, j.State())
	}
}

// waitPopped waits until the held worker has taken everything off the queue.
func waitPopped(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.queue.depth() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("queue never drained to the held worker")
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := newTestServer(t, Config{})
	src := synGuardSrc(t)
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"empty", JobSpec{}},
		{"both program and source", JobSpec{Program: "copy-to-cpu", Source: src}},
		{"unknown program", JobSpec{Program: "no-such-system"}},
		{"unknown kind", JobSpec{Kind: "bench", Source: src}},
		{"profile with target", JobSpec{Source: src, Target: "syn"}},
		{"adversarial without target", JobSpec{Kind: KindAdversarial, Source: src}},
		{"scale and options", JobSpec{Source: src, Scale: "quick", Options: core.WireOptions{Seed: 3}}},
		{"unknown scale", JobSpec{Source: src, Scale: "gigantic"}},
		{"negative timeout", JobSpec{Source: src, TimeoutSec: -1}},
	}
	for _, tc := range cases {
		if _, code, err := s.Submit(tc.spec); code != http.StatusBadRequest || err == nil {
			t.Errorf("%s: code=%d err=%v, want 400", tc.name, code, err)
		}
	}
}

// The content address must identify the work, not the scheduling: priority
// and job timeout do not change it, every profile knob does, and a preset
// fingerprint equals its spelled-out form.
func TestFingerprintIdentity(t *testing.T) {
	src := synGuardSrc(t)
	id := func(s JobSpec) string {
		t.Helper()
		norm, err := s.normalize()
		if err != nil {
			t.Fatal(err)
		}
		return norm.id()
	}
	base := JobSpec{Source: src, Options: core.WireOptions{Seed: 1}}
	if id(base) != id(JobSpec{Source: src, Options: core.WireOptions{Seed: 1}, Priority: 9, TimeoutSec: 30}) {
		t.Fatal("priority/timeout changed the content address")
	}
	if id(base) == id(JobSpec{Source: src, Options: core.WireOptions{Seed: 2}}) {
		t.Fatal("seed change did not change the content address")
	}
	if id(base) == id(JobSpec{Source: src, Uniform: true, Options: core.WireOptions{Seed: 1}}) {
		t.Fatal("uniform flag did not change the content address")
	}

	// A spec that spells out a preset's options addresses identically to the
	// preset itself.
	scaled := JobSpec{Source: src, Scale: "quick"}
	norm, err := scaled.normalize()
	if err != nil {
		t.Fatal(err)
	}
	spelled := JobSpec{Source: src, Options: norm.Options}
	if id(scaled) != id(spelled) {
		t.Fatal("preset and spelled-out options fingerprint differently")
	}

	// Spelling out a default equals omitting it.
	explicit := JobSpec{Source: src, Options: norm.Options.Normalized()}
	if id(scaled) != id(explicit) {
		t.Fatal("normalized options fingerprint differently")
	}
}

// Sixteen concurrent identical submissions must collapse onto one engine
// run: one 202, fifteen deduplicated 200s, and exactly one jobs_run tick.
func TestSingleFlightConcurrentSubmissions(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 2})
	hold := make(chan struct{})
	s.testHold = hold
	spec := JobSpec{Source: synGuardSrc(t), Scale: "quick"}

	const n = 16
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, code, err := s.Submit(spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
			codes[i] = code
		}(i)
	}
	wg.Wait()

	accepted, deduped := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
			deduped++
		default:
			t.Fatalf("unexpected submit code %d", c)
		}
	}
	if accepted != 1 || deduped != n-1 {
		t.Fatalf("accepted=%d deduped=%d, want 1/%d", accepted, deduped, n-1)
	}

	close(hold)
	norm, _ := spec.normalize()
	j, ok := s.Job(norm.id())
	if !ok {
		t.Fatal("job missing from table")
	}
	waitDone(t, j)
	if st := j.State(); st != StateDone {
		t.Fatalf("job state %s: %s", st, j.Status().Error)
	}
	if runs := s.reg.Counter("serve.jobs_run").Value(); runs != 1 {
		t.Fatalf("jobs_run = %d, want 1", runs)
	}
	if d := s.reg.Counter("serve.dedup_inflight").Value(); d != n-1 {
		t.Fatalf("dedup_inflight = %d, want %d", d, n-1)
	}
	if _, ok := s.store.Get(norm.id()); !ok {
		t.Fatal("result not persisted")
	}
}

// Resubmitting finished work is answered from the store without another
// engine run — including by a fresh server over the same store directory
// (a daemon restart).
func TestResubmitServedFromStore(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StoreDir: dir, JobWorkers: 1})
	spec := JobSpec{Source: synGuardSrc(t), Scale: "quick"}

	st, code, err := s.Submit(spec)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("first submit: code=%d err=%v", code, err)
	}
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job failed: %s", j.Status().Error)
	}

	st2, code, err := s.Submit(spec)
	if err != nil || code != http.StatusOK || !st2.Cached {
		t.Fatalf("resubmit: code=%d cached=%v err=%v", code, st2.Cached, err)
	}
	if runs := s.reg.Counter("serve.jobs_run").Value(); runs != 1 {
		t.Fatalf("resubmit re-ran the engine: jobs_run=%d", runs)
	}
	if hits := s.reg.Counter("serve.store_hits").Value(); hits != 1 {
		t.Fatalf("store_hits = %d, want 1", hits)
	}

	// Restart: a new server over the same directory replays from disk.
	s2 := newTestServer(t, Config{StoreDir: dir, JobWorkers: 1})
	st3, code, err := s2.Submit(spec)
	if err != nil || code != http.StatusOK || !st3.Cached {
		t.Fatalf("post-restart resubmit: code=%d cached=%v err=%v", code, st3.Cached, err)
	}
	if runs := s2.reg.Counter("serve.jobs_run").Value(); runs != 0 {
		t.Fatalf("post-restart resubmit ran the engine: jobs_run=%d", runs)
	}
}

// A status answered from the store — a resubmission, or a status request
// for a job from an earlier daemon life — names the trace and kind of the
// run that produced the result, like a live job's status does.
func TestStoredStatusKeepsTraceAndKind(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StoreDir: dir, JobWorkers: 1})
	const pinned = "0123456789abcdef"
	spec := JobSpec{Source: synGuardSrc(t), Scale: "quick", TraceID: pinned}
	st, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job failed: %s", j.Status().Error)
	}

	s2 := newTestServer(t, Config{StoreDir: dir, JobWorkers: 1})
	spec.TraceID = ""
	st2, code, err := s2.Submit(spec)
	if err != nil || code != http.StatusOK || !st2.Cached {
		t.Fatalf("post-restart resubmit: code=%d cached=%v err=%v", code, st2.Cached, err)
	}
	if st2.TraceID != pinned || st2.Kind != KindProfile {
		t.Fatalf("resubmit status trace_id=%q kind=%q, want %q/%q", st2.TraceID, st2.Kind, pinned, KindProfile)
	}

	s3 := newTestServer(t, Config{StoreDir: dir, JobWorkers: 1})
	ts := httptest.NewServer(s3.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st3 JobStatus
	json.NewDecoder(resp.Body).Decode(&st3)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st3.State != StateDone || st3.TraceID != pinned || st3.Kind != KindProfile {
		t.Fatalf("stored status: code=%d %+v, want done with trace_id %q kind %q", resp.StatusCode, st3, pinned, KindProfile)
	}
}

// The served profile must be identical to what the offline pipeline
// produces for the same program and options — the service is a cache in
// front of the engine, never a different engine. Everything except the
// run-specific job/timing metadata is compared.
func TestServedProfileMatchesOffline(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1})
	src := synGuardSrc(t)
	spec := JobSpec{Source: src, Options: core.WireOptions{Seed: 1}}

	st, code, err := s.Submit(spec)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: code=%d err=%v", code, err)
	}
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job failed: %s", j.Status().Error)
	}
	data, ok := s.store.Get(st.ID)
	if !ok {
		t.Fatal("no stored result")
	}
	var served obs.Report
	if err := json.Unmarshal(data, &served); err != nil {
		t.Fatalf("stored result is not a report: %v", err)
	}
	if served.Job == nil || served.Job.ID != st.ID || served.Job.Kind != KindProfile {
		t.Fatalf("served report job block: %+v", served.Job)
	}

	// Offline run with the identical normalized options.
	norm, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p4c.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := norm.Options.Options()
	prof, err := core.ProbProf(prog, oracleFor(norm, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	offline := core.NewReport(prof, opt)

	if !reflect.DeepEqual(served.Nodes, offline.Nodes) {
		t.Fatalf("served nodes differ from offline:\nserved:  %+v\noffline: %+v", served.Nodes, offline.Nodes)
	}
	if served.Converged != offline.Converged || served.Coverage != offline.Coverage {
		t.Fatalf("served converged/coverage %v/%v, offline %v/%v",
			served.Converged, served.Coverage, offline.Converged, offline.Coverage)
	}
	servedOpts, _ := json.Marshal(served.Options)
	offlineOpts, _ := json.Marshal(offline.Options)
	if !bytes.Equal(servedOpts, offlineOpts) {
		t.Fatalf("served options %s differ from offline %s", servedOpts, offlineOpts)
	}
	if served.Program != offline.Program || served.SchemaVersion != offline.SchemaVersion {
		t.Fatalf("report headers differ: %s/%d vs %s/%d",
			served.Program, served.SchemaVersion, offline.Program, offline.SchemaVersion)
	}
}

// Past the queue bound submissions are rejected with 429 (the HTTP layer
// adds Retry-After); they succeed again once the queue drains.
func TestQueueFullBackpressure(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 2})
	hold := make(chan struct{})
	s.testHold = hold
	src := synGuardSrc(t)
	spec := func(seed int64) JobSpec {
		return JobSpec{Source: src, Scale: "", Options: core.WireOptions{Seed: seed}}
	}

	// First job lands on the held worker; the next two fill the queue.
	if _, code, err := s.Submit(spec(1)); code != http.StatusAccepted || err != nil {
		t.Fatalf("submit 1: code=%d err=%v", code, err)
	}
	waitPopped(t, s)
	for seed := int64(2); seed <= 3; seed++ {
		if _, code, err := s.Submit(spec(seed)); code != http.StatusAccepted || err != nil {
			t.Fatalf("submit %d: code=%d err=%v", seed, code, err)
		}
	}
	_, code, err := s.Submit(spec(4))
	if code != http.StatusTooManyRequests || err != ErrQueueFull {
		t.Fatalf("over-bound submit: code=%d err=%v, want 429/ErrQueueFull", code, err)
	}
	if rej := s.reg.Counter("serve.rejected_full").Value(); rej != 1 {
		t.Fatalf("rejected_full = %d", rej)
	}

	close(hold)
	for seed := int64(1); seed <= 3; seed++ {
		norm, _ := spec(seed).normalize()
		j, ok := s.Job(norm.id())
		if !ok {
			t.Fatalf("job for seed %d missing", seed)
		}
		waitDone(t, j)
	}
	// Capacity is available again.
	if _, code, _ := s.Submit(spec(4)); code != http.StatusAccepted {
		t.Fatalf("post-drain submit: code=%d, want 202", code)
	}
}

// Canceling a queued job keeps it off the engine entirely.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1})
	hold := make(chan struct{})
	s.testHold = hold
	src := synGuardSrc(t)

	stA, _, err := s.Submit(JobSpec{Source: src, Options: core.WireOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitPopped(t, s) // A is on the held worker
	stB, _, err := s.Submit(JobSpec{Source: src, Options: core.WireOptions{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	jB, _ := s.Job(stB.ID)
	jB.Cancel()
	waitDone(t, jB)
	if jB.State() != StateCanceled {
		t.Fatalf("canceled queued job state = %s", jB.State())
	}

	close(hold)
	jA, _ := s.Job(stA.ID)
	waitDone(t, jA)
	if jA.State() != StateDone {
		t.Fatalf("job A: %s", jA.Status().Error)
	}
	if runs := s.reg.Counter("serve.jobs_run").Value(); runs != 1 {
		t.Fatalf("jobs_run = %d, want 1 (canceled job must not run)", runs)
	}
	if _, ok := s.store.Get(stB.ID); ok {
		t.Fatal("canceled job has a stored result")
	}
}

// Canceling a running job stops the engine mid-run: the context threads
// down through the profiler's stride checks, the job lands in the canceled
// state, and nothing is persisted.
func TestCancelRunningJob(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1})
	// A deliberately enormous sampling budget: the job cannot finish fast,
	// so the cancel always lands mid-run.
	spec := JobSpec{
		Source: synGuardSrc(t),
		Options: core.WireOptions{
			Seed:             1,
			MaxIters:         1,
			SampleBudget:     1 << 30,
			DisableTelescope: true,
		},
	}
	st, code, err := s.Submit(spec)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: code=%d err=%v", code, err)
	}
	j, _ := s.Job(st.ID)
	waitState(t, j, StateRunning)
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	j.Cancel()
	waitDone(t, j)
	if j.State() != StateCanceled {
		t.Fatalf("state = %s (%s), want canceled", j.State(), j.Status().Error)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if _, ok := s.store.Get(st.ID); ok {
		t.Fatal("canceled job persisted a result")
	}
	if c := s.reg.Counter("serve.jobs_canceled").Value(); c != 1 {
		t.Fatalf("jobs_canceled = %d", c)
	}
}

// A panicking engine fails its job — with the panic in the job error — and
// leaves the daemon serving.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1})
	src := synGuardSrc(t)
	s.testFault = func(spec JobSpec) {
		if spec.Options.Seed == 666 {
			panic("injected engine fault")
		}
	}

	st, _, err := s.Submit(JobSpec{Source: src, Options: core.WireOptions{Seed: 666}})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	if j.State() != StateFailed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	if msg := j.Status().Error; !strings.Contains(msg, "injected engine fault") {
		t.Fatalf("job error does not carry the panic: %q", msg)
	}
	if p := s.reg.Counter("serve.panics").Value(); p != 1 {
		t.Fatalf("panics = %d", p)
	}

	// The worker survived; the next job runs normally.
	st2, _, err := s.Submit(JobSpec{Source: src, Scale: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := s.Job(st2.ID)
	waitDone(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("follow-up job: %s (%s)", j2.State(), j2.Status().Error)
	}
}

// A source whose table re-applies itself fails its job at Build, with the
// Build error in the job status, and the worker takes the next job.
// Executing such a program would never finish a packet.
func TestRecursiveSourceFailsJob(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1})
	recursive := `program "recursive" {
  table t(pkt.dst_port) { entry(80) -> apply_table t; default -> forward(1); }
  apply { apply_table t; }
}`
	st, _, err := s.Submit(JobSpec{Source: recursive, Scale: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	if j.State() != StateFailed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	if msg := j.Status().Error; !strings.Contains(msg, `table "t" is applied recursively`) {
		t.Fatalf("job error does not carry the Build error: %q", msg)
	}

	st2, _, err := s.Submit(JobSpec{Source: synGuardSrc(t), Scale: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := s.Job(st2.ID)
	waitDone(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("follow-up job: %s (%s)", j2.State(), j2.Status().Error)
	}
}

// Drain with a job in flight: intake stops immediately, the in-flight job
// finishes and persists its result, and Drain returns cleanly.
func TestDrainPersistsInFlight(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1})
	hold := make(chan struct{})
	s.testHold = hold
	spec := JobSpec{Source: synGuardSrc(t), Scale: "quick"}

	st, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPopped(t, s)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Intake is closed before the drain completes.
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, code, err := s.Submit(JobSpec{Source: synGuardSrc(t), Options: core.WireOptions{Seed: 7}}); code != http.StatusServiceUnavailable || err != ErrDraining {
		t.Fatalf("submit during drain: code=%d err=%v, want 503/ErrDraining", code, err)
	}

	close(hold) // let the held job run to completion
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	j, _ := s.Job(st.ID)
	if j.State() != StateDone {
		t.Fatalf("in-flight job after drain: %s (%s)", j.State(), j.Status().Error)
	}
	if _, ok := s.store.Get(st.ID); !ok {
		t.Fatal("drained job's result not persisted")
	}
}

// Adversarial jobs flow through the same lifecycle and store a validated
// packet sequence.
func TestAdversarialJob(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1})
	spec := JobSpec{
		Kind:    KindAdversarial,
		Source:  synGuardSrc(t),
		Target:  "alarm",
		Options: core.WireOptions{Seed: 1},
	}
	st, code, err := s.Submit(spec)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: code=%d err=%v", code, err)
	}
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("adversarial job: %s (%s)", j.State(), j.Status().Error)
	}
	data, ok := s.store.Get(st.ID)
	if !ok {
		t.Fatal("no stored result")
	}
	var res AdvResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindAdversarial || res.Target != "alarm" || !res.Validated || len(res.Packets) == 0 {
		t.Fatalf("adversarial result: kind=%s target=%s validated=%v packets=%d",
			res.Kind, res.Target, res.Validated, len(res.Packets))
	}
	if res.Job == nil || res.Job.ID != st.ID {
		t.Fatalf("adversarial result job block: %+v", res.Job)
	}
}

// End-to-end over HTTP: submit, poll status, stream events, fetch the
// result, list, cancel errors, health, and metrics — all on one mux.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	if resp, body := get("/v1/healthz"); resp.StatusCode != 200 || !strings.Contains(string(body), "serving") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	spec := JobSpec{Source: synGuardSrc(t), Scale: "quick"}
	payload, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}

	// Unknown-field payloads are rejected.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"source": "x", "bogus_field": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}

	// The SSE stream ends with a done event carrying the terminal state.
	sseResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	sawDone := false
	sc := bufio.NewScanner(sseResp.Body)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("SSE stream ended without a done event")
	}

	// Status and result are now served.
	resp, body := get("/v1/jobs/" + st.ID)
	var fin JobStatus
	json.Unmarshal(body, &fin)
	if resp.StatusCode != 200 || fin.State != StateDone {
		t.Fatalf("status after done: %d %+v", resp.StatusCode, fin)
	}
	resp, body = get("/v1/jobs/" + st.ID + "/result")
	if resp.StatusCode != 200 || !json.Valid(body) {
		t.Fatalf("result: %d (%d bytes)", resp.StatusCode, len(body))
	}
	var rep obs.Report
	if err := json.Unmarshal(body, &rep); err != nil || rep.SchemaVersion != obs.SchemaVersion {
		t.Fatalf("result is not a v%d report: %v", obs.SchemaVersion, err)
	}

	resp, body = get("/v1/jobs")
	if resp.StatusCode != 200 || !strings.Contains(string(body), st.ID) {
		t.Fatalf("list does not include the job: %d %s", resp.StatusCode, body)
	}

	if resp, _ := get("/v1/jobs/" + strings.Repeat("0", 64)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+strings.Repeat("0", 64), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: %d", resp.StatusCode)
	}

	resp, body = get("/metrics")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "serve_jobs_run") {
		t.Fatalf("metrics endpoint: %d %.200s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("metrics content type = %q, want %q", ct, obs.PrometheusContentType)
	}
	if errs := obs.LintPrometheus(body); len(errs) != 0 {
		t.Fatalf("metrics exposition fails lint: %v", errs)
	}

	// The job's span tree exports as Chrome trace_event JSON.
	resp, body = get("/debug/trace/" + st.ID)
	if resp.StatusCode != 200 {
		t.Fatalf("trace endpoint: %d %.200s", resp.StatusCode, body)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if n, _ := ev["name"].(string); n != "" {
			names[n] = true
		}
	}
	for _, want := range []string{"job", "queued", "run", "probprof", "persist"} {
		if !names[want] {
			t.Fatalf("trace missing span %q; got %v", want, names)
		}
	}
	if resp, _ := get("/debug/trace/" + strings.Repeat("0", 64)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of unknown job: %d", resp.StatusCode)
	}
}

// A 429 response carries Retry-After so clients know to back off.
func TestHTTPBackpressureRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 1})
	hold := make(chan struct{})
	s.testHold = hold
	defer close(hold)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	src := synGuardSrc(t)
	submit := func(seed int64) *http.Response {
		t.Helper()
		payload, _ := json.Marshal(JobSpec{Source: src, Options: core.WireOptions{Seed: seed}})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d", resp.StatusCode)
	}
	waitPopped(t, s)
	if resp := submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %d", resp.StatusCode)
	}
	resp := submit(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}
