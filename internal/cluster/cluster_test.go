package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// worker wraps one real serve.Server behind an httptest listener, with a
// kill switch: once dead, every request gets 502 without reaching the
// daemon — the HTTP-level signature of a crashed box, while the test keeps
// control of the underlying server for cleanup.
type worker struct {
	srv  *serve.Server
	ts   *httptest.Server
	dead atomic.Bool
}

func (w *worker) kill() { w.dead.Store(true) }

func newWorker(t *testing.T, jobWorkers int) *worker {
	t.Helper()
	srv, err := serve.New(serve.Config{StoreDir: t.TempDir(), JobWorkers: jobWorkers})
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{srv: srv}
	inner := srv.Handler()
	w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.dead.Load() {
			http.Error(rw, "worker down", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		w.ts.Close()
		srv.Close()
	})
	return w
}

// newTestCluster starts n real workers and a coordinator over them with a
// test-speed heartbeat interval.
func newTestCluster(t *testing.T, n int, tune func(*Config)) (*Coordinator, []*worker) {
	t.Helper()
	workers := make([]*worker, n)
	addrs := make([]string, n)
	for i := range workers {
		workers[i] = newWorker(t, 2)
		addrs[i] = workers[i].ts.URL
	}
	cfg := Config{
		Workers:        addrs,
		HeartbeatEvery: 50 * time.Millisecond,
	}
	if tune != nil {
		tune(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, workers
}

// waitCdone blocks until the coordinator job is terminal.
func waitCdone(t *testing.T, j *serve.Job) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		switch j.State() {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state (now %s)", j.ID, j.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// stripVolatile drops the run-specific fields of a result report — job
// metadata and timings — leaving exactly the content that must be
// byte-identical however the job was routed.
func stripVolatile(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("result is not JSON: %v", err)
	}
	// iterations and hot_blocks are deterministic in their counts but carry
	// per-stage wall times; metrics/stages_sec/wall_sec are pure timing.
	for _, k := range []string{"job", "generated_at", "wall_sec", "stages_sec", "metrics", "hot_blocks", "iterations"} {
		delete(m, k)
	}
	return m
}

// The tentpole correctness bar: results served through the coordinator are
// identical to single-node daemon runs for a spread of zoo programs across
// two device targets. The comparison strips only job/timing metadata —
// nodes, coverage, convergence, options, schema all must match exactly.
func TestClusterByteIdentityAcrossPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker e2e")
	}
	c, _ := newTestCluster(t, 3, nil)
	single, err := serve.New(serve.Config{StoreDir: t.TempDir(), JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	programs := []string{"copy-to-cpu", "resubmit", "encap", "simple_router"}
	targets := []string{"idealized", "tofino"}
	for _, prog := range programs {
		for _, tgt := range targets {
			spec := serve.JobSpec{Program: prog, Options: core.WireOptions{Seed: 1, Target: tgt}}

			st, code, err := c.Submit(spec)
			if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
				t.Fatalf("%s/%s: cluster submit code=%d err=%v", prog, tgt, code, err)
			}
			j, ok := c.Job(st.ID)
			if !ok {
				t.Fatalf("%s/%s: coordinator lost job %s", prog, tgt, st.ID)
			}
			waitCdone(t, j)
			if j.State() != serve.StateDone {
				t.Fatalf("%s/%s: cluster job %s: %s", prog, tgt, j.State(), j.Status().Error)
			}
			viaCluster, ok := c.Store().Get(st.ID)
			if !ok {
				t.Fatalf("%s/%s: done job %s not in coordinator cache", prog, tgt, st.ID)
			}

			sst, scode, err := single.Submit(spec)
			if err != nil || scode != http.StatusAccepted {
				t.Fatalf("%s/%s: single-node submit code=%d err=%v", prog, tgt, scode, err)
			}
			if sst.ID != st.ID {
				t.Fatalf("%s/%s: content address differs: cluster %s, single %s", prog, tgt, st.ID, sst.ID)
			}
			sj, _ := single.Job(sst.ID)
			deadline := time.Now().Add(120 * time.Second)
			for sj.State() != serve.StateDone {
				if time.Now().After(deadline) {
					t.Fatalf("%s/%s: single-node job stuck in %s", prog, tgt, sj.State())
				}
				time.Sleep(5 * time.Millisecond)
			}
			viaSingle, ok := single.Store().Get(sst.ID)
			if !ok {
				t.Fatalf("%s/%s: single-node result missing", prog, tgt)
			}

			got, want := stripVolatile(t, viaCluster), stripVolatile(t, viaSingle)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: coordinator result diverges from single-node", prog, tgt)
			}
		}
	}
}

// Killing one of three workers mid-flight must degrade, never corrupt:
// every job still completes, rerouted jobs carry retry attempts, and the
// rerouted results equal an untouched single-node run.
func TestClusterWorkerKillMidJobRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker e2e")
	}
	c, workers := newTestCluster(t, 3, nil)

	// Submit a batch of distinct jobs (seeds vary the content address), then
	// kill whichever worker the first still-running job landed on.
	var jobs []*serve.Job
	for seed := int64(1); seed <= 4; seed++ {
		spec := serve.JobSpec{Program: "simple_router", Options: core.WireOptions{Seed: seed}}
		st, code, err := c.Submit(spec)
		if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
			t.Fatalf("seed %d: submit code=%d err=%v", seed, code, err)
		}
		j, _ := c.Job(st.ID)
		jobs = append(jobs, j)
	}

	// Wait for some job to be running on a worker, then kill that worker
	// while the others keep serving.
	killed := ""
	deadline := time.Now().Add(30 * time.Second)
	for killed == "" && time.Now().Before(deadline) {
		for _, j := range jobs {
			for _, w := range workers {
				if wj, ok := w.srv.Job(j.ID); ok && wj.State() == serve.StateRunning {
					w.kill()
					killed = canonicalAddr(w.ts.URL)
					break
				}
			}
			if killed != "" {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if killed == "" {
		t.Fatal("no job was ever dispatched; nothing to kill")
	}

	for i, j := range jobs {
		waitCdone(t, j)
		if j.State() != serve.StateDone {
			t.Fatalf("job %d (%s) finished %s after worker kill: %s",
				i, j.ID, j.State(), j.Status().Error)
		}
	}

	// Jobs that were on the killed worker must have been retried elsewhere —
	// and their results must match a clean single-node run.
	single, err := serve.New(serve.Config{StoreDir: t.TempDir(), JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	rerouted := 0
	for _, j := range jobs {
		// Every forward leaves a job record on its worker.
		attempts, finishedElsewhere := 0, false
		for _, w := range workers {
			if wj, ok := w.srv.Job(j.ID); ok {
				attempts++
				if canonicalAddr(w.ts.URL) != killed && wj.State() == serve.StateDone {
					finishedElsewhere = true
				}
			}
		}
		if attempts > 1 {
			rerouted++
			if !finishedElsewhere {
				t.Fatalf("job %s says it finished on the killed worker %s", j.ID, killed)
			}
		}
		data, ok := c.Store().Get(j.ID)
		if !ok {
			t.Fatalf("job %s has no cached result", j.ID)
		}
		sst, _, err := single.Submit(j.Spec)
		if err != nil {
			t.Fatal(err)
		}
		sj, _ := single.Job(sst.ID)
		for sj.State() != serve.StateDone {
			time.Sleep(5 * time.Millisecond)
		}
		ref, _ := single.Store().Get(sst.ID)
		if !reflect.DeepEqual(stripVolatile(t, data), stripVolatile(t, ref)) {
			t.Errorf("job %s: rerouted result diverges from single-node", j.ID)
		}
	}
	st := c.Status()
	var retries int64
	for _, sh := range st.Shards {
		retries += sh.Retries
	}
	if rerouted > 0 && retries == 0 {
		t.Error("jobs were rerouted but no shard retry was counted")
	}
	t.Logf("killed %s; %d of %d jobs rerouted, %d retries counted", killed, rerouted, len(jobs), retries)
}

// A fresh coordinator must answer a repeat submission from the ring
// owner's store — a remote cache hit, no dispatch, no engine run.
func TestClusterRemoteCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker e2e")
	}
	c, workers := newTestCluster(t, 2, nil)
	spec := serve.JobSpec{Program: "copy-to-cpu", Options: core.WireOptions{Seed: 7}}
	st, _, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := c.Job(st.ID)
	waitCdone(t, j)
	if j.State() != serve.StateDone {
		t.Fatalf("priming job failed: %s", j.Status().Error)
	}

	// Second coordinator, same fleet, empty caches: the submission must come
	// back done without entering the dispatch queue.
	c2, err := New(Config{
		Workers:        []string{workers[0].ts.URL, workers[1].ts.URL},
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, code, err := c2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || st2.State != serve.StateDone || !st2.Cached {
		t.Fatalf("repeat submit: code=%d state=%s cached=%v, want 200/done/cached", code, st2.State, st2.Cached)
	}
	if n := c2.Registry().Counter("cluster.enqueued").Value(); n != 0 {
		t.Fatalf("remote cache hit still enqueued %d jobs", n)
	}
	if _, ok := c2.Store().Get(st.ID); !ok {
		t.Fatal("remote hit was not replicated into the coordinator LRU")
	}
}

// A trace_id pinned by the client travels with the forwarded spec: the
// worker's job carries it, as does the coordinator's.
func TestClusterPinnedTraceID(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker e2e")
	}
	c, workers := newTestCluster(t, 2, nil)
	const pinned = "feedfacecafebeef"
	st, _, err := c.Submit(serve.JobSpec{Program: "copy-to-cpu", TraceID: pinned, Options: core.WireOptions{Seed: 21}})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != pinned {
		t.Fatalf("coordinator status trace_id=%q, want %q", st.TraceID, pinned)
	}
	j, _ := c.Job(st.ID)
	waitCdone(t, j)
	if j.State() != serve.StateDone {
		t.Fatalf("job failed: %s", j.Status().Error)
	}
	ran := 0
	for _, w := range workers {
		if wj, ok := w.srv.Job(st.ID); ok {
			ran++
			if got := wj.Status().TraceID; got != pinned {
				t.Fatalf("worker job trace_id=%q, want %q", got, pinned)
			}
		}
	}
	if ran == 0 {
		t.Fatal("no worker ran the job")
	}
}

// A job the coordinator never routed — submitted straight to a shard — is
// still visible through the coordinator: status, result and trace are
// fetched from the ring.
func TestClusterRelaysUnroutedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker e2e")
	}
	c, workers := newTestCluster(t, 2, nil)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	st, _, err := workers[1].srv.Submit(serve.JobSpec{Program: "copy-to-cpu", Options: core.WireOptions{Seed: 41}})
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := workers[1].srv.Job(st.ID)
	waitCdone(t, wj)
	for _, path := range []string{"/v1/jobs/" + st.ID, "/v1/jobs/" + st.ID + "/result", "/debug/trace/" + st.ID} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !json.Valid(body) {
			t.Fatalf("GET %s via the coordinator: %s", path, resp.Status)
		}
	}
	if _, ok := c.Job(st.ID); ok {
		t.Fatal("relayed requests created a coordinator job")
	}
	if _, ok := c.Store().Get(st.ID); !ok {
		t.Fatal("relayed result was not kept in the coordinator's store")
	}
}

// fakeShard is a scriptable worker for scheduler-level tests: it accepts
// every forward and holds each job "running" until released, so tests
// control exactly how loaded a shard looks. Cancels are honored like the
// real daemon's, and /events streams each job until it is terminal.
type fakeShard struct {
	ts      *httptest.Server
	accepts atomic.Int64
	release chan string // job IDs finish when sent here
	// streams counts /events requests; the first cut of them end after
	// one line, without a done event.
	streams atomic.Int64
	cut     atomic.Int64

	mu   sync.Mutex
	jobs map[string]*fakeJob
}

type fakeJob struct {
	state    serve.JobState
	terminal chan struct{} // closed on reaching a terminal state
}

// job returns the fake's record for id, creating a running one; created
// reports whether it was new.
func (f *fakeShard) job(id string) (fj *fakeJob, created bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fj, ok := f.jobs[id]; ok {
		return fj, false
	}
	fj = &fakeJob{state: serve.StateRunning, terminal: make(chan struct{})}
	f.jobs[id] = fj
	return fj, true
}

// finish moves a running job to state; released jobs finish even before
// they are forwarded.
func (f *fakeShard) finish(id string, state serve.JobState) serve.JobState {
	fj, _ := f.job(id)
	f.mu.Lock()
	defer f.mu.Unlock()
	if fj.state == serve.StateRunning {
		fj.state = state
		close(fj.terminal)
	}
	return fj.state
}

// stateOf returns a known job's state.
func (f *fakeShard) stateOf(id string) (serve.JobState, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fj, ok := f.jobs[id]
	if !ok {
		return "", false
	}
	return fj.state, true
}

// has reports whether the job was ever forwarded here (or released).
func (f *fakeShard) has(id string) bool {
	_, ok := f.stateOf(id)
	return ok
}

func newFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	f := &fakeShard{release: make(chan string, 64), jobs: map[string]*fakeJob{}}
	go func() {
		for id := range f.release {
			f.finish(id, serve.StateDone)
		}
	}()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.NodeStats{State: "serving", JobWorkers: 2})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec serve.JobSpec
		json.NewDecoder(r.Body).Decode(&spec)
		norm, err := spec.Normalize()
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		f.accepts.Add(1)
		id := norm.ID()
		f.job(id)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: id, State: serve.StateRunning})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, ok := f.stateOf(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(serve.JobStatus{ID: id, State: st})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !f.has(id) {
			http.NotFound(w, r)
			return
		}
		fj, _ := f.job(id)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "data: fake shard running %s\n\n", id)
		w.(http.Flusher).Flush()
		if f.streams.Add(1) <= f.cut.Load() {
			return
		}
		select {
		case <-fj.terminal:
		case <-r.Context().Done():
			return
		}
		st, _ := f.stateOf(id)
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !f.has(id) {
			http.NotFound(w, r)
			return
		}
		st := f.finish(id, serve.StateCanceled)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: id, State: st})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if st, ok := f.stateOf(id); !ok || st != serve.StateDone {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, `{"fake_result_for": %q}`, id)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(func() {
		f.ts.Close()
		close(f.release)
	})
	return f
}

// A stream that breaks while the job still runs on its shard costs one
// status check and a reopened stream — not a reroute — and the lines the
// shard replays on the new stream are not relayed twice.
func TestClusterStreamBreakReopens(t *testing.T) {
	f := newFakeShard(t)
	f.cut.Store(2)
	c, err := New(Config{
		Workers:        []string{f.ts.URL},
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	st, _, err := c.Submit(serve.JobSpec{Program: "copy-to-cpu", Options: core.WireOptions{Seed: 31}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.streams.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := f.streams.Load(); n < 3 {
		t.Fatalf("coordinator opened %d event streams, want a reopen after each of 2 cuts", n)
	}
	f.release <- st.ID
	j, _ := c.Job(st.ID)
	waitCdone(t, j)
	if j.State() != serve.StateDone {
		t.Fatalf("job finished %s: %s", j.State(), j.Status().Error)
	}
	shard := canonicalAddr(f.ts.URL)
	if n := c.Registry().Counter(labeledCounter("cluster.retries", shard)).Value(); n != 0 {
		t.Fatalf("stream cuts counted %d retries, want 0", n)
	}
	if n := f.accepts.Load(); n != 1 {
		t.Fatalf("job forwarded %d times, want once", n)
	}
	// The coordinator's stream also carries its own span lines.
	lines, _ := readEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	relayed := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "fake shard running") {
			relayed++
		}
	}
	if relayed != 1 {
		t.Fatalf("shard line relayed %d times, want once:\n%s", relayed, strings.Join(lines, "\n"))
	}
}

// specOwnedBy searches seeds until a valid spec's content address lands on
// the wanted shard, so scheduler tests can aim jobs at a known owner.
func specOwnedBy(t *testing.T, c *Coordinator, owner string, taken map[string]bool) serve.JobSpec {
	t.Helper()
	for seed := int64(1); seed < 10_000; seed++ {
		spec := serve.JobSpec{Program: "copy-to-cpu", Options: core.WireOptions{Seed: seed}}
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		id := norm.ID()
		if !taken[id] && c.ring.owner(id) == owner {
			taken[id] = true
			return spec
		}
	}
	t.Fatalf("no seed hashes onto %s", owner)
	return serve.JobSpec{}
}

// An overloaded ring owner must have its next job stolen by an idle shard.
func TestClusterWorkSteal(t *testing.T) {
	f1, f2 := newFakeShard(t), newFakeShard(t)
	c, err := New(Config{
		Config:         serve.Config{JobWorkers: 2},
		Workers:        []string{f1.ts.URL, f2.ts.URL},
		StealLoad:      1,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	owner := canonicalAddr(f1.ts.URL)
	thief := canonicalAddr(f2.ts.URL)
	// currentWorker names the fake shard a job was forwarded to.
	currentWorker := func(id string) string {
		for _, f := range []*fakeShard{f1, f2} {
			if f.has(id) {
				return canonicalAddr(f.ts.URL)
			}
		}
		return ""
	}
	taken := map[string]bool{}
	specA := specOwnedBy(t, c, owner, taken)
	specB := specOwnedBy(t, c, owner, taken)

	stA, _, err := c.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	jA, _ := c.Job(stA.ID)
	deadline := time.Now().Add(10 * time.Second)
	for currentWorker(stA.ID) == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := currentWorker(stA.ID); got != owner {
		t.Fatalf("job A dispatched to %s, want its ring owner %s", got, owner)
	}

	// Owner now has 1 in flight >= StealLoad: B must be stolen by the idle
	// second shard even though the owner is alive and ready.
	stB, _, err := c.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	jB, _ := c.Job(stB.ID)
	for currentWorker(stB.ID) == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := currentWorker(stB.ID); got != thief {
		t.Fatalf("job B ran on %s, want it stolen by the idle shard %s", got, thief)
	}
	f1.release <- stA.ID
	f2.release <- stB.ID
	waitCdone(t, jA)
	waitCdone(t, jB)
	if n := c.Registry().Counter(labeledCounter("cluster.steals", thief)).Value(); n != 1 {
		t.Fatalf("steals{%s}=%d, want 1", thief, n)
	}
}

// Per-tenant quotas must 429 the over-quota tenant while other tenants
// keep submitting.
func TestClusterTenantQuota(t *testing.T) {
	f := newFakeShard(t)
	c, err := New(Config{
		Config:         serve.Config{TenantQuota: 2, JobWorkers: 1},
		Workers:        []string{f.ts.URL},
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	submit := func(tenant string, seed int64) (serve.JobStatus, int, error) {
		return c.Submit(serve.JobSpec{
			Program: "copy-to-cpu", Tenant: tenant,
			Options: core.WireOptions{Seed: seed},
		})
	}
	// Seed 1 occupies the single dispatcher (fake shard holds it running);
	// wait until it leaves the queue so the quota applies to the backlog.
	if _, code, err := submit("greedy", 1); err != nil || code != http.StatusAccepted {
		t.Fatalf("first submit: code=%d err=%v", code, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().QueueDepth != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for seed := int64(2); seed <= 3; seed++ {
		if _, code, err := submit("greedy", seed); err != nil || code != http.StatusAccepted {
			t.Fatalf("backlog submit seed %d: code=%d err=%v", seed, code, err)
		}
	}
	if _, code, err := submit("greedy", 4); code != http.StatusTooManyRequests || err != serve.ErrTenantQuota {
		t.Fatalf("over-quota submit: code=%d err=%v, want 429/ErrTenantQuota", code, err)
	}
	if _, code, err := submit("modest", 5); err != nil || code != http.StatusAccepted {
		t.Fatalf("other tenant blocked by greedy's quota: code=%d err=%v", code, err)
	}
	if n := c.Registry().Counter(labeledCounter("cluster.quota_rejections", "greedy")).Value(); n < 1 {
		t.Fatal("quota rejection not counted")
	}
}

// labeledCounter mirrors the metric names the coordinator uses.
func labeledCounter(base, label string) string {
	switch base {
	case "cluster.quota_rejections":
		if label == "" {
			label = "default"
		}
		return "cluster.quota_rejections{tenant=\"" + label + "\"}"
	default:
		return base + "{shard=\"" + label + "\"}"
	}
}

// A draining coordinator must refuse new submissions with 503 while
// finishing what it accepted.
func TestClusterDrainRefusesNewWork(t *testing.T) {
	f := newFakeShard(t)
	c, err := New(Config{
		Workers:        []string{f.ts.URL},
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, _, err := c.Submit(serve.JobSpec{Program: "copy-to-cpu", Options: core.WireOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := c.Job(st.ID)
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- c.Drain(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !c.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, code, err := c.Submit(serve.JobSpec{Program: "copy-to-cpu", Options: core.WireOptions{Seed: 2}}); code != http.StatusServiceUnavailable || err != serve.ErrDraining {
		t.Fatalf("submit during drain: code=%d err=%v, want 503/ErrDraining", code, err)
	}
	f.release <- st.ID
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j.State() != serve.StateDone {
		t.Fatalf("accepted job finished %s across the drain, want done", j.State())
	}
}

// The coordinator's HTTP surface must match a single daemon's: submit,
// status, result, cancel, health — exercised over real HTTP.
func TestClusterHandlerSurface(t *testing.T) {
	f := newFakeShard(t)
	c, err := New(Config{
		Workers:        []string{f.ts.URL},
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz=%d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz=%d", code)
	}

	spec := serve.JobSpec{Program: "copy-to-cpu", Options: core.WireOptions{Seed: 11}}
	data, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: code=%d st=%+v", resp.StatusCode, st)
	}
	if st.TraceID != st.ID[:16] {
		t.Fatalf("trace ID %q not derived from content address %q", st.TraceID, st.ID)
	}

	if code, body := get("/v1/jobs/" + st.ID); code != http.StatusOK || !bytes.Contains(body, []byte(st.ID)) {
		t.Fatalf("status: code=%d body=%s", code, body)
	}
	if code, body := get("/v1/jobs"); code != http.StatusOK || !bytes.Contains(body, []byte(st.ID)) {
		t.Fatalf("list: code=%d body=%s", code, body)
	}
	if code, _ := get("/v1/jobs/" + st.ID + "/result"); code != http.StatusAccepted {
		t.Fatalf("result while running: code=%d, want 202", code)
	}
	if code, body := get("/v1/cluster/status"); code != http.StatusOK || !bytes.Contains(body, []byte("shards")) {
		t.Fatalf("cluster status: code=%d body=%s", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !bytes.Contains(body, []byte("cluster_forwards")) {
		t.Fatalf("metrics: code=%d missing cluster_forwards\n%s", code, body[:min(len(body), 400)])
	}

	f.release <- st.ID
	j, _ := c.Job(st.ID)
	waitCdone(t, j)
	if code, body := get("/v1/jobs/" + st.ID + "/result"); code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("result after done: code=%d", code)
	}
	if code, body := get("/debug/trace/" + st.ID); code != http.StatusOK || !bytes.Contains(body, []byte("forward")) {
		t.Fatalf("trace: code=%d body=%.200s", code, body)
	}

	// Unknown job: clean 404s, not hangs.
	if code, _ := get("/v1/jobs/" + st.ID[:32] + "00000000000000000000000000000000"); code != http.StatusNotFound {
		t.Fatalf("unknown status code=%d", code)
	}

	// Cancel a queued job (fake shard never releases it): DELETE must land
	// a terminal canceled state.
	spec2 := serve.JobSpec{Program: "copy-to-cpu", Options: core.WireOptions{Seed: 12}}
	st2, _, err := c.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: code=%d", dresp.StatusCode)
	}
	j2, _ := c.Job(st2.ID)
	deadline := time.Now().Add(20 * time.Second)
	for j2.State() != serve.StateCanceled && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if j2.State() != serve.StateCanceled {
		t.Fatalf("canceled job stuck in %s", j2.State())
	}
}

// readEvents reads one SSE stream to its end and returns the progress data
// lines and the data of the final "done" event.
func readEvents(t *testing.T, url string) (lines []string, done serve.JobState) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	done, err = serve.ReadEvents(resp.Body, func(line string) { lines = append(lines, line) })
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return lines, done
}

// The coordinator's /events stream carries the shard's progress lines and
// ends with the coordinator's own terminal event; a subscriber arriving
// after the job finished gets the same lines replayed, then done.
func TestClusterEventsRelay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker e2e")
	}
	c, _ := newTestCluster(t, 2, nil)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	data, _ := json.Marshal(serve.JobSpec{Program: "NetCache (S6)", Options: core.WireOptions{Seed: 3}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: code=%d", resp.StatusCode)
	}

	lines, done := readEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if done != serve.StateDone {
		t.Fatalf("stream ended with done=%q, want %q", done, serve.StateDone)
	}
	iters := 0
	for _, l := range lines {
		if strings.Contains(l, "iter ") {
			iters++
		}
	}
	if iters == 0 {
		t.Fatalf("no iter progress line among %d relayed lines:\n%s", len(lines), strings.Join(lines, "\n"))
	}

	late, lateDone := readEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if lateDone != serve.StateDone {
		t.Fatalf("late stream ended with done=%q, want %q", lateDone, serve.StateDone)
	}
	if !reflect.DeepEqual(late, lines) {
		t.Fatalf("late subscriber replayed %d lines, want the %d the first one saw", len(late), len(lines))
	}
}
