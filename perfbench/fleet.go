package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/programs"
	"repro/internal/serve"
	"repro/internal/testgen"
	"repro/internal/trace"
)

// cheapPrograms are the zoo programs whose profile takes a few
// milliseconds at every seed: fresh jobs for them measure the serving path,
// not the profiler. (resubmit is left out: at some seeds it falls back to
// sampling and takes over 100 ms.)
var cheapPrograms = []string{
	"copy-to-cpu", "encap", "NDP switch", "P4xos", "ACL (S4)",
	"*Flow (S7)", "NetHCF (S9)", "counter (S12)", "htable (S13)", "cmsketch (S14)", "bfilter (S15)",
}

// fleetLoad sizes one serve_fleet pass. The open-loop rate is about half
// the capacity measured for this fleet (two single-job workers) on a
// two-core box; see README.md.
type fleetLoad struct {
	rate   float64 // fresh jobs per second in the open-loop phase
	fresh  int     // fresh jobs in the open-loop phase
	cached int     // resubmissions of finished specs
	adv    int     // adversarial jobs
	burst  int     // fresh jobs submitted at once after the open loop
}

var (
	fullLoad = fleetLoad{rate: 10, fresh: 60, cached: 20, adv: 2, burst: 96}
	tinyLoad = fleetLoad{rate: 20, fresh: 10, cached: 4, adv: 1, burst: 6}
)

// pollEvery is how often the generator asks for a submitted job's state.
const pollEvery = 5 * time.Millisecond

// daemon is one p4wnd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string        // base URL
	done chan struct{} // closed once the process has been waited for
}

// startDaemon runs p4wnd with JSON logs and returns once it logged the
// address it listens on.
func startDaemon(bin string, readyMsg string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append(args, "-log-format", "json", "-log-level", "info")...)
	// The kernel kills the daemon if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			var line struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if !sent && json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == readyMsg && line.Addr != "" {
				addrCh <- line.Addr
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // drain after a scanner error
		_ = cmd.Wait()                     // exit status is irrelevant once stopped
		close(d.done)
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before serving", filepath.Base(bin))
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address", filepath.Base(bin))
	}
}

// stop asks the daemon to drain, kills it if it does not exit promptly,
// and waits for it.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

type fleetRunner struct {
	cfg     *config
	load    fleetLoad
	dir     string
	workers []*daemon
	coord   *daemon
	client  *http.Client
	passes  int
	// offline caches the offline answer per content address.
	offline map[string][]byte
	// last is the latest traced pass's requests and owners the workers
	// that ran its first fresh jobs; the probes reuse them.
	last   []*request
	owners []*daemon
}

// setupFleet starts two worker daemons with fresh stores and a coordinator
// over them, all on free loopback ports, and waits until each answers
// /readyz.
func setupFleet(cfg *config, tr *tracer) (runner, error) {
	if cfg.bin == "" {
		return nil, errors.New("serve_fleet needs -bin, the directory holding p4wnd")
	}
	bin := filepath.Join(cfg.bin, "p4wnd")
	dir, err := os.MkdirTemp(cfg.work, "fleet-")
	if err != nil {
		return nil, err
	}
	r := &fleetRunner{
		cfg:  cfg,
		load: fullLoad,
		dir:  dir,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		},
		offline: map[string][]byte{},
	}
	if cfg.tiny {
		r.load = tinyLoad
	}
	sp := tr.start("serve.start", -1)
	defer tr.end(sp)
	var addrs []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(bin, "serving", "-addr", "127.0.0.1:0",
			"-store", filepath.Join(r.dir, fmt.Sprintf("w%d", i)), "-jobs", "1", "-workers", "1")
		if err != nil {
			r.close()
			return nil, err
		}
		r.workers = append(r.workers, d)
		addrs = append(addrs, d.addr)
	}
	// The quota and queue admit the whole burst: refusals would count as
	// failures, and the burst measures draining, not admission control.
	coord, err := startDaemon(bin, "coordinating", "-coordinator", "-addr", "127.0.0.1:0",
		"-workers", strings.Join(addrs, ","), "-tenant-quota", "256", "-queue", "256")
	if err != nil {
		r.close()
		return nil, err
	}
	r.coord = coord
	for _, d := range append([]*daemon{coord}, r.workers...) {
		if err := r.waitReady(d.addr); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *fleetRunner) waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := r.client.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", base)
}

func (r *fleetRunner) close() {
	if r.coord != nil {
		r.coord.stop()
	}
	for _, d := range r.workers {
		d.stop()
	}
	r.client.CloseIdleConnections()
	_ = os.RemoveAll(r.dir) // scratch stores; a leftover is harmless
}

// request is one scheduled submission.
type request struct {
	kind string // fresh, cached, adv or burst
	at   time.Duration
	spec serve.JobSpec
	span int // the request's span in traced passes

	// Filled in by the generator.
	lag      time.Duration
	latency  time.Duration
	submit   time.Duration
	get      time.Duration
	status   serve.JobStatus
	body     []byte
	refused  bool
	err      error
	sentAt   time.Time
	resultAt time.Time
}

// schedule derives one pass's requests from the seed and pass number.
func (r *fleetRunner) schedule() []*request {
	rng := rand.New(rand.NewSource(r.cfg.seed*7919 + int64(r.passes)))
	base := r.cfg.seed*1_000_000 + int64(r.passes)*10_000
	job := 0
	fresh := func(kind string, at time.Duration) *request {
		job++
		name := cheapPrograms[rng.Intn(len(cheapPrograms))]
		return &request{kind: kind, at: at, spec: serve.JobSpec{
			Program: name, Options: core.WireOptions{Seed: base + int64(job)},
		}}
	}
	var reqs []*request
	var t time.Duration
	// Arrivals keep a constant mean rate with a seeded jitter of a quarter
	// gap either way: Poisson clumps would swing how many jobs wait for a
	// coordinator dispatch slot from pass to pass.
	gap := time.Duration(float64(time.Second) / r.load.rate)
	for i := 0; i < r.load.fresh; i++ {
		t += gap
		reqs = append(reqs, fresh("fresh", t+time.Duration((rng.Float64()-0.5)*0.5*float64(gap))))
	}
	end := t
	// Cached resubmissions repeat a fresh spec sent at least a second
	// earlier, which has finished by then at this load.
	for i := 0; i < r.load.cached; i++ {
		at := time.Second + time.Duration(rng.Float64()*float64(end-time.Second))
		var cands []int
		for j, q := range reqs[:r.load.fresh] {
			if q.at <= at-time.Second {
				cands = append(cands, j)
			}
		}
		if len(cands) == 0 {
			continue
		}
		j := cands[rng.Intn(len(cands))]
		reqs = append(reqs, &request{kind: "cached", at: at, spec: reqs[j].spec})
	}
	cases := eval.AdvCases()
	for i := 0; i < r.load.adv; i++ {
		c := cases[rng.Intn(len(cases))]
		m, _ := programs.SID(c.SystemID)
		job++
		reqs = append(reqs, &request{kind: "adv", spec: serve.JobSpec{
			Kind: "adversarial", Program: m.Name, Target: c.Label, Options: core.WireOptions{Seed: base + int64(job)},
		}})
	}
	for i := 0; i < r.load.burst; i++ {
		reqs = append(reqs, fresh("burst", 0))
	}
	return reqs
}

func (r *fleetRunner) pass(tr *tracer) (*passResult, error) {
	reqs := r.schedule()
	r.passes++
	res := &passResult{digests: map[string]string{}, layer: map[string]float64{}}

	// Open loop: fresh and cached requests go out at their scheduled times
	// whether or not earlier ones have finished. Adversarial jobs run
	// between the open loop and the burst: a slow one would hold a worker
	// and push fresh jobs behind it past a coordinator poll, so fresh
	// latency would depend on which cases the seed picked.
	phases := map[string][]*request{}
	for _, q := range reqs {
		phases[q.kind] = append(phases[q.kind], q)
	}
	r.fire(tr, append(phases["fresh"], phases["cached"]...))
	r.fire(tr, phases["adv"])
	burst := phases["burst"]
	start := time.Now()
	r.fire(tr, burst)
	var last time.Time
	for _, q := range burst {
		if q.resultAt.After(last) {
			last = q.resultAt
		}
	}
	res.wall = last.Sub(start)

	var cached, lags, submits, gets []float64
	var hits, cachedTotal, refused float64
	for _, q := range reqs {
		res.attempted++
		ms := float64(q.latency) / 1e6
		lags = append(lags, float64(q.lag)/1e6)
		switch {
		case q.refused:
			refused++
			res.fail("%s %s: refused (%v)", q.kind, q.spec.Program, q.err)
			continue
		case q.err != nil:
			res.fail("%s %s: %v", q.kind, q.spec.Program, q.err)
			continue
		}
		submits = append(submits, float64(q.submit)/1e6)
		gets = append(gets, float64(q.get)/1e6)
		switch q.kind {
		case "fresh":
			res.opsMS = append(res.opsMS, ms)
		case "cached":
			cachedTotal++
			if q.status.Cached {
				hits++
				cached = append(cached, ms)
			}
		}
		if msg := r.verify(q); msg != "" {
			res.fail("%s %s seed %d: %s", q.kind, q.spec.Program, q.spec.Options.Seed, msg)
		}
	}
	res.layer["serve.batch_jobs_per_s"] = float64(len(burst)) / res.wall.Seconds()
	res.layer["serve.cached_p50_ms"] = quantile(cached, 0.5)
	res.layer["serve.cached_p90_ms"] = quantile(cached, 0.9)
	res.layer["serve.gen_lag_ms"] = maxOf(lags)
	res.layer["serve.submit_ms"] = median(submits)
	res.layer["serve.result_get_ms"] = median(gets)
	res.layer["serve.refused"] = refused
	if cachedTotal > 0 {
		res.layer["serve.store_hit_ratio"] = hits / cachedTotal
	}
	for _, d := range append([]*daemon{r.coord}, r.workers...) {
		res.rssMB += peakRSSMB(d.cmd.Process.Pid)
	}
	if tr != nil {
		if err := r.workerTimes(tr, reqs, res.layer); err != nil {
			return nil, err
		}
		r.last = reqs
	}
	return res, nil
}

// fire sends the requests at their scheduled offsets from now and waits
// for every one to finish.
func (r *fleetRunner) fire(tr *tracer, reqs []*request) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, q := range reqs {
		wg.Add(1)
		go func(q *request) {
			defer wg.Done()
			due := start.Add(q.at)
			time.Sleep(time.Until(due))
			q.lag = time.Since(due)
			r.do(tr, q, due)
		}(q)
	}
	wg.Wait()
}

// do submits one job through the coordinator, polls until it finished,
// and reads its result. Latency runs from the scheduled send time until
// the result bytes have been read.
func (r *fleetRunner) do(tr *tracer, q *request, due time.Time) {
	sp := tr.add("bench.request", -1, due, due)
	q.span = sp
	defer func() {
		q.latency = time.Since(due)
		tr.end(sp)
	}()
	body, err := json.Marshal(q.spec)
	if err != nil {
		q.err = err
		return
	}
	q.sentAt = time.Now()
	sub := tr.start("serve.submit", sp)
	resp, err := r.client.Post(r.coord.addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sub)
		q.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sub)
	q.submit = time.Since(q.sentAt)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		q.refused = true
		q.err = fmt.Errorf("HTTP %d", resp.StatusCode)
		return
	}
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
		q.err = fmt.Errorf("submit: HTTP %d %s %v", resp.StatusCode, bytes.TrimSpace(data), err)
		return
	}
	if err := json.Unmarshal(data, &q.status); err != nil {
		q.err = fmt.Errorf("submit: %w", err)
		return
	}
	for q.status.State == serve.StateQueued || q.status.State == serve.StateRunning {
		time.Sleep(pollEvery)
		st, err := r.getStatus(r.coord.addr, q.status.ID)
		if err != nil {
			q.err = err
			return
		}
		cached := q.status.Cached
		q.status = st
		q.status.Cached = q.status.Cached || cached
	}
	if q.status.State != serve.StateDone {
		q.err = fmt.Errorf("job %s ended %s: %s", q.status.ID, q.status.State, q.status.Error)
		return
	}
	g := tr.start("serve.result_get", sp)
	t0 := time.Now()
	q.body, q.err = r.getResult(r.coord.addr, q.status.ID)
	q.get = time.Since(t0)
	q.resultAt = time.Now()
	tr.end(g)
}

func (r *fleetRunner) getStatus(base, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := r.client.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.Unmarshal(data, &st)
}

func (r *fleetRunner) getResult(base, id string) ([]byte, error) {
	resp, err := r.client.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: HTTP %d", id, resp.StatusCode)
	}
	return data, nil
}

// verify compares a served result with the same computation run offline:
// profiles on the report projection the serving smoke test uses,
// adversarial jobs on the generated packets.
func (r *fleetRunner) verify(q *request) string {
	want, ok := r.offline[q.status.ID]
	if !ok {
		var err error
		want, err = offlineAnswer(q.spec)
		if err != nil {
			return "offline run: " + err.Error()
		}
		r.offline[q.status.ID] = want
	}
	got, err := servedAnswer(q.spec, q.body)
	if err != nil {
		return "served result: " + err.Error()
	}
	if !bytes.Equal(got, want) {
		return "served result differs from the offline answer"
	}
	return ""
}

// advView is the part of an adversarial result that describes the answer.
type advView struct {
	Program       string         `json:"program"`
	Target        string         `json:"target"`
	Validated     bool           `json:"validated"`
	HasCollisions bool           `json:"has_collisions,omitempty"`
	Packets       []trace.Packet `json:"packets"`
}

func servedAnswer(spec serve.JobSpec, body []byte) ([]byte, error) {
	if spec.Kind == "adversarial" {
		var v advView
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, err
		}
		return json.Marshal(v)
	}
	return projectReport(body)
}

func offlineAnswer(spec serve.JobSpec) ([]byte, error) {
	m, ok := programs.ByName(spec.Program)
	if !ok {
		return nil, fmt.Errorf("unknown program %q", spec.Program)
	}
	prog := m.Build()
	if spec.Kind == "adversarial" {
		node := prog.NodeByLabel(spec.Target)
		if node == nil {
			return nil, fmt.Errorf("no block %q", spec.Target)
		}
		adv, err := testgen.Generate(prog, node.ID, testgen.Options{Seed: spec.Options.Seed})
		if err != nil {
			return nil, err
		}
		return json.Marshal(advView{Program: adv.Program, Target: adv.Label, Validated: adv.Validated,
			HasCollisions: adv.HasCollisions, Packets: adv.Packets})
	}
	opt := spec.Options.Options()
	opt.Workers = workers
	pf, err := core.ProbProf(prog, trace.NewQueryProcessor(trace.Generate(m.Workload(spec.Options.Seed))), opt)
	if err != nil {
		return nil, err
	}
	return profileView(pf, prog, opt)
}

// workerStatus finds a job on the worker that ran it.
func (r *fleetRunner) workerStatus(id string) (serve.JobStatus, *daemon, error) {
	for _, d := range r.workers {
		if st, err := r.getStatus(d.addr, id); err == nil && st.FinishedAt != "" {
			return st, d, nil
		}
	}
	return serve.JobStatus{}, nil, fmt.Errorf("no worker ran job %s", id)
}

// workerTimes adds each fresh job's worker-side queue and run intervals
// and the coordinator hop after it to the trace.
func (r *fleetRunner) workerTimes(tr *tracer, reqs []*request, layer map[string]float64) error {
	var waits, runs, hops []float64
	r.owners = nil
	for _, q := range reqs {
		if q.kind == "cached" || q.err != nil {
			continue
		}
		ws, owner, err := r.workerStatus(q.status.ID)
		if err != nil {
			return err
		}
		var at [5]time.Time
		for i, ts := range []string{q.status.SubmittedAt, ws.SubmittedAt, ws.StartedAt, ws.FinishedAt, q.status.FinishedAt} {
			if at[i], err = time.Parse(time.RFC3339Nano, ts); err != nil {
				return fmt.Errorf("job %s timestamps: %w", q.status.ID, err)
			}
		}
		// Coordinator queue and forward, worker queue, engine run, and the
		// coordinator noticing the finished job.
		tr.add("cluster.dispatch", q.span, at[0], at[1])
		tr.add("serve.queue_wait", q.span, at[1], at[2])
		tr.add("serve.run", q.span, at[2], at[3])
		tr.add("cluster.hop", q.span, at[3], at[4])
		if q.kind != "fresh" {
			continue
		}
		waits = append(waits, float64(at[2].Sub(at[1]))/1e6)
		runs = append(runs, float64(at[3].Sub(at[2]))/1e6)
		hops = append(hops, float64(at[4].Sub(at[3]))/1e6)
		if len(r.owners) < 20 {
			r.owners = append(r.owners, owner)
		}
	}
	layer["serve.queue_wait_ms"] = median(waits)
	layer["serve.run_ms"] = median(runs)
	layer["cluster.hop_fresh_ms"] = median(hops)
	return nil
}

// probes measures the cached path through the coordinator against the
// owning worker directly, and the store on the traced pass's results.
func (r *fleetRunner) probes(tr *tracer, layer map[string]float64) error {
	// Cached hop: the same finished spec resubmitted via the coordinator and
	// straight to the worker that owns it.
	var viaCoord, direct []float64
	n := 0
	for _, q := range r.last {
		if q.kind != "fresh" || q.err != nil || n >= len(r.owners) {
			continue
		}
		c, err := r.timedCached(r.coord.addr, q.spec)
		if err != nil {
			return err
		}
		d, err := r.timedCached(r.owners[n].addr, q.spec)
		if err != nil {
			return err
		}
		viaCoord = append(viaCoord, c)
		direct = append(direct, d)
		n++
	}
	layer["cluster.hop_cached_ms"] = median(viaCoord) - median(direct)

	// Store probes: the served results written to and read back from a
	// fresh store.
	store, err := serve.OpenStore(filepath.Join(r.dir, "probe-store"), 256)
	if err != nil {
		return err
	}
	var puts, getsUS []float64
	for _, q := range r.last {
		if q.err != nil || len(q.body) == 0 {
			continue
		}
		id := q.status.ID
		sp := tr.start("serve.store_put", -1)
		t0 := time.Now()
		if err := store.Put(id, q.body); err != nil {
			tr.end(sp)
			return err
		}
		puts = append(puts, float64(time.Since(t0))/1e3)
		tr.end(sp)
		sp = tr.start("serve.store_get", -1)
		t0 = time.Now()
		store.Get(id)
		getsUS = append(getsUS, float64(time.Since(t0))/1e3)
		tr.end(sp)
	}
	layer["serve.store_put_us"] = median(puts)
	layer["serve.store_get_us"] = median(getsUS)
	return nil
}

// timedCached submits an already finished spec to one daemon and reads the
// answer, returning the milliseconds it took.
func (r *fleetRunner) timedCached(base string, spec serve.JobSpec) (float64, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := r.client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, fmt.Errorf("cached submit to %s: HTTP %d: %w", base, resp.StatusCode, err)
	}
	if !st.Cached {
		return 0, fmt.Errorf("resubmission of %s to %s was not answered from the store", st.ID, base)
	}
	if _, err := r.getResult(base, st.ID); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / 1e6, nil
}
