package main

// Client side of the p4wnd daemon: submit/status/result/cancel speak the
// JSON HTTP API documented on cmd/p4wnd. The daemon address comes from
// -addr, falling back to the P4WND_ADDR environment variable, falling back
// to the default local port.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

const defaultDaemonAddr = "http://127.0.0.1:8471"

// addrFlag registers the shared -addr flag.
func addrFlag(fs *flag.FlagSet) *string {
	def := defaultDaemonAddr
	if env := os.Getenv("P4WND_ADDR"); env != "" {
		def = env
	}
	return fs.String("addr", def, "p4wnd base URL (or set P4WND_ADDR)")
}

// baseURL canonicalizes the daemon address: a bare host:port gets the
// http scheme, trailing slashes go away.
func baseURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// apiError extracts the server's error envelope, falling back to the
// status line for non-JSON bodies.
func apiError(resp *http.Response, body []byte) error {
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, eb.Error)
	}
	return fmt.Errorf("%s", resp.Status)
}

// doJSON performs one API request and decodes a JSON response into out
// (skipped when out is nil). Non-2xx responses become errors carrying the
// server's message.
func doJSON(method, url string, reqBody, out any) error {
	return doJSONRetry(method, url, reqBody, out, 0)
}

// doJSONRetry is doJSON with bounded retries over transient failures:
// connection errors and 429/502/503/504 responses. The wait between
// attempts doubles from retryBaseDelay with ±25% jitter; a 429 carrying
// Retry-After waits at least that long (the daemon sets it when its queue
// or a tenant quota is full). Anything else — including every 4xx other
// than 429 — fails immediately: the request itself is wrong, repeating it
// can't help.
func doJSONRetry(method, url string, reqBody, out any, retries int) error {
	var data []byte
	if reqBody != nil {
		var err error
		if data, err = json.Marshal(reqBody); err != nil {
			return err
		}
	}
	delay := retryBaseDelay
	for attempt := 0; ; attempt++ {
		err, retryAfter, retryable := doJSONOnce(method, url, data, out)
		if err == nil || !retryable || attempt >= retries {
			return err
		}
		wait := jitter(delay)
		if retryAfter > wait {
			wait = retryAfter
		}
		fmt.Fprintf(os.Stderr, "p4wn: %v; retrying in %s (%d/%d)\n",
			err, wait.Round(time.Millisecond), attempt+1, retries)
		time.Sleep(wait)
		if delay < retryMaxDelay {
			delay *= 2
		}
	}
}

const (
	retryBaseDelay = 250 * time.Millisecond
	retryMaxDelay  = 8 * time.Second
)

// jitter spreads a backoff delay ±25% so synchronized clients desynchronize.
func jitter(d time.Duration) time.Duration {
	return d + time.Duration((rand.Float64()-0.5)*0.5*float64(d))
}

// doJSONOnce is one attempt: the error (nil on success), any Retry-After
// hint, and whether the failure is worth retrying.
func doJSONOnce(method, url string, data []byte, out any) (err error, retryAfter time.Duration, retryable bool) {
	var rd io.Reader
	if data != nil {
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err, 0, false
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		// Connection refused, reset, timeout: the transport failed before any
		// server judgment — transient by assumption.
		return err, 0, true
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err, 0, true
	}
	if resp.StatusCode/100 != 2 {
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			if secs, convErr := strconv.Atoi(resp.Header.Get("Retry-After")); convErr == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
			return apiError(resp, body), retryAfter, true
		}
		return apiError(resp, body), 0, false
	}
	if out != nil {
		return json.Unmarshal(body, out), 0, false
	}
	return nil, 0, false
}

func printStatusTo(w io.Writer, st serve.JobStatus) {
	line := fmt.Sprintf("%s  %-11s %s", st.ID, st.State, st.Kind)
	if st.Cached {
		line += "  (cached)"
	}
	if st.Error != "" {
		line += "  error: " + st.Error
	}
	fmt.Fprintln(w, line)
}

func printStatus(st serve.JobStatus) { printStatusTo(os.Stdout, st) }

// runSubmit enqueues a profiling or adversarial job on the daemon and
// prints the job ID; with -follow it then streams progress and prints the
// result JSON to stdout once the job finishes.
func runSubmit(args []string) {
	fs := newFlagSet("submit", "submit (-prog name | -file prog.p4w) [-target label] [-target-model model] [-uniform] [-scale quick|default|full] [-seed n] [-priority n] [-tenant name] [-retries n] [-job-timeout d] [-follow] [-addr url]")
	addr := addrFlag(fs)
	progName := fs.String("prog", "", "zoo program name")
	progFile := fs.String("file", "", "mini-language source file (alternative to -prog)")
	target := fs.String("target", "", "code-block label: submit an adversarial job")
	targetModel := fs.String("target-model", "", "device model to run against (see `p4wn targets`)")
	uniform := fs.Bool("uniform", false, "profile against the uniform header space")
	scale := fs.String("scale", "", "options preset: quick, default, or full")
	seed := fs.Int64("seed", 1, "random seed (matches `p4wn profile`'s default)")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	tenant := fs.String("tenant", "", "tenant name for coordinator fair-share scheduling")
	retries := fs.Int("retries", 3, "resubmit attempts over backpressure (429) and connection errors")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-clock bound (0 = server default)")
	follow := fs.Bool("follow", false, "stream progress, then print the result JSON")
	parseFlags(fs, args)
	mustTargetModel(fs, *targetModel)

	spec := serve.JobSpec{
		Program:    *progName,
		Uniform:    *uniform,
		Target:     *target,
		Scale:      *scale,
		Options:    core.WireOptions{Seed: *seed, Target: *targetModel},
		Priority:   *priority,
		Tenant:     *tenant,
		TimeoutSec: jobTimeout.Seconds(),
	}
	if *target != "" {
		spec.Kind = serve.KindAdversarial
	}
	if *progFile != "" {
		src, err := os.ReadFile(*progFile)
		if err != nil {
			fatal(err)
		}
		spec.Source = string(src)
	}
	if (spec.Program == "") == (spec.Source == "") {
		fmt.Fprintln(os.Stderr, "p4wn submit: needs exactly one of -prog, -file")
		fs.Usage()
		os.Exit(2)
	}

	base := baseURL(*addr)
	var st serve.JobStatus
	if err := doJSONRetry(http.MethodPost, base+"/v1/jobs", spec, &st, *retries); err != nil {
		fatal(err)
	}
	if !*follow {
		printStatus(st)
		return
	}
	// Following: stdout carries only the result JSON; the status line and
	// progress stream go to stderr.
	printStatusTo(os.Stderr, st)
	if !st.Cached {
		if err := followEvents(base, st.ID); err != nil {
			fatal(err)
		}
	}
	if err := fetchResult(base, st.ID, os.Stdout); err != nil {
		fatal(err)
	}
}

// followEvents streams the job's SSE progress feed to stderr until the
// daemon sends the terminal "done" event.
func followEvents(base, id string) error {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return apiError(resp, body)
	}
	state, err := serve.ReadEvents(resp.Body, func(line string) { fmt.Fprintln(os.Stderr, line) })
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s: %s\n", id, state)
	return nil
}

// fetchResult downloads the stored result JSON, retrying briefly while the
// job is still finishing (the SSE done event can beat result persistence).
func fetchResult(base, id string, w io.Writer) error {
	url := base + "/v1/jobs/" + id + "/result"
	var lastErr error
	for attempt := 0; attempt < 40; attempt++ {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			_, err := w.Write(body)
			return err
		case http.StatusAccepted:
			lastErr = fmt.Errorf("job %s still %s", id, jobStateOf(body))
			time.Sleep(250 * time.Millisecond)
		default:
			return apiError(resp, body)
		}
	}
	return lastErr
}

func jobStateOf(body []byte) string {
	var st serve.JobStatus
	if json.Unmarshal(body, &st) == nil && st.State != "" {
		return string(st.State)
	}
	return "pending"
}

// runStatus prints one job's status, or every job the daemon knows about.
func runStatus(args []string) {
	fs := newFlagSet("status", "status [-id job] [-addr url]")
	addr := addrFlag(fs)
	id := fs.String("id", "", "job ID (omit to list all jobs)")
	parseFlags(fs, args)

	base := baseURL(*addr)
	if *id != "" {
		var st serve.JobStatus
		if err := doJSON(http.MethodGet, base+"/v1/jobs/"+*id, nil, &st); err != nil {
			fatal(err)
		}
		printStatus(st)
		return
	}
	var list struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	if err := doJSON(http.MethodGet, base+"/v1/jobs", nil, &list); err != nil {
		fatal(err)
	}
	for _, st := range list.Jobs {
		printStatus(st)
	}
}

// runResult fetches a finished job's result JSON.
func runResult(args []string) {
	fs := newFlagSet("result", "result -id job [-o out.json] [-follow] [-addr url]")
	addr := addrFlag(fs)
	id := fs.String("id", "", "job ID")
	out := fs.String("o", "", "write the result here instead of stdout")
	follow := fs.Bool("follow", false, "wait for a queued/running job instead of failing")
	parseFlags(fs, args)
	if *id == "" {
		fmt.Fprintln(os.Stderr, "p4wn result: -id required")
		fs.Usage()
		os.Exit(2)
	}

	base := baseURL(*addr)
	if *follow {
		if err := followEvents(base, *id); err != nil {
			fatal(err)
		}
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := fetchResult(base, *id, w); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote result to %s\n", *out)
	}
}

// runTrace downloads a job's span tree as Chrome trace_event JSON, ready
// to open in chrome://tracing or https://ui.perfetto.dev.
func runTrace(args []string) {
	fs := newFlagSet("trace", "trace -id job [-o trace.json] [-addr url]")
	addr := addrFlag(fs)
	id := fs.String("id", "", "job ID")
	out := fs.String("o", "", "write the trace here instead of stdout")
	parseFlags(fs, args)
	if *id == "" {
		fmt.Fprintln(os.Stderr, "p4wn trace: -id required")
		fs.Usage()
		os.Exit(2)
	}

	resp, err := http.Get(baseURL(*addr) + "/debug/trace/" + *id)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal(apiError(resp, body))
	}
	if *out == "" {
		os.Stdout.Write(body)
		return
	}
	if err := os.WriteFile(*out, body, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", *out)
}

// runCluster talks to a coordinator: `p4wn cluster status` renders the
// shard table (liveness, queue depths, forward/steal/retry counters) plus
// tenant fair-share state; -json dumps the raw wire form.
func runCluster(args []string) {
	if len(args) < 1 || args[0] != "status" {
		fmt.Fprintln(os.Stderr, "usage: p4wn cluster status [-json] [-addr url]")
		os.Exit(2)
	}
	fs := newFlagSet("cluster status", "cluster status [-json] [-addr url]")
	addr := addrFlag(fs)
	asJSON := fs.Bool("json", false, "print the raw JSON status")
	parseFlags(fs, args[1:])

	var st cluster.ClusterStatus
	if err := doJSON(http.MethodGet, baseURL(*addr)+"/v1/cluster/status", nil, &st); err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(st)
		return
	}
	state := "serving"
	if st.Draining {
		state = "draining"
	}
	fmt.Printf("coordinator: %s  pending=%d jobs=%d cache=%d entries (%d hits)\n\n",
		state, st.Pending, st.Jobs, st.CacheResident, st.CacheHits)
	rows := make([][]string, 0, len(st.Shards))
	for _, sh := range st.Shards {
		shState := "down"
		switch {
		case sh.Ready:
			shState = "ready"
		case sh.Alive:
			shState = "draining"
		}
		rows = append(rows, []string{
			sh.Addr, shState,
			strconv.Itoa(sh.QueueDepth), strconv.Itoa(sh.Running), strconv.Itoa(sh.Dispatched),
			strconv.FormatInt(sh.Forwards, 10), strconv.FormatInt(sh.Steals, 10),
			strconv.FormatInt(sh.RemoteHits, 10), strconv.FormatInt(sh.Retries, 10),
		})
	}
	fmt.Print(obs.Table(
		[]string{"shard", "state", "queue", "running", "dispatched", "forwards", "steals", "remote-hits", "retries"},
		rows))
	if len(st.Tenants) > 0 {
		fmt.Println()
		trows := make([][]string, 0, len(st.Tenants))
		for _, tn := range st.Tenants {
			name := tn.Name
			if name == "" {
				name = "default"
			}
			trows = append(trows, []string{
				name, strconv.FormatFloat(tn.Weight, 'g', -1, 64),
				strconv.Itoa(tn.Pending), strconv.FormatInt(tn.Rejected, 10),
			})
		}
		fmt.Print(obs.Table([]string{"tenant", "weight", "pending", "rejected"}, trows))
	}
}

// runCancel cancels a queued or running job.
func runCancel(args []string) {
	fs := newFlagSet("cancel", "cancel -id job [-addr url]")
	addr := addrFlag(fs)
	id := fs.String("id", "", "job ID")
	parseFlags(fs, args)
	if *id == "" {
		fmt.Fprintln(os.Stderr, "p4wn cancel: -id required")
		fs.Usage()
		os.Exit(2)
	}
	var st serve.JobStatus
	if err := doJSON(http.MethodDelete, baseURL(*addr)+"/v1/jobs/"+*id, nil, &st); err != nil {
		fatal(err)
	}
	printStatus(st)
}
