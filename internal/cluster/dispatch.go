package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// maxNoShardWait bounds how long a job waits for any live shard before
// failing outright (a fleet-wide outage must surface as an error, not a
// silent hang).
const maxNoShardWait = 30 * time.Second

// streamIdle is how long an event stream may stay silent before the
// coordinator treats the connection as dead: several of the shard's
// keepalive intervals.
const streamIdle = 4 * serve.EventKeepAlive

// shardError is a routing failure: the shard, not the job, failed, so the
// job moves on to the next candidate in its ring sequence.
type shardError struct {
	stage string
	err   error
}

func (e shardError) Error() string { return e.stage + ": " + e.err.Error() }

// Run drives one job across the fleet: pick a shard, forward, follow the
// shard's event stream to a terminal state, fetch the result. A shard
// failing at any step (connection refused mid-job, 5xx, vanished job)
// moves the job to the next candidate in its ring sequence; the
// content-addressed spec makes the retry byte-identical, so a worker kill
// degrades throughput but never output. The job's deadline is the shard's
// to enforce: the coordinator never fails a job a shard would finish.
func (c *Coordinator) Run(ctx context.Context, j *serve.Job) ([]byte, error) {
	ctx, span := j.Tracer().StartSpanCtx(ctx, "forward")
	defer span.End()
	tried := map[string]bool{}
	var waited time.Duration
	for attempt := 1; ; {
		addr, stolen := c.pickShard(j.ID, tried)
		if addr == "" {
			// No untried ready shard right now. That can be transient — a
			// heartbeat false-negative, a shard mid-drain — so wait it out
			// up to maxNoShardWait before declaring the fleet unable.
			if waited >= maxNoShardWait {
				return nil, errors.New("no live worker could run the job")
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(200 * time.Millisecond):
				waited += 200 * time.Millisecond
			}
			continue
		}
		tried[addr] = true
		if attempt > 1 {
			j.Publish(fmt.Sprintf("coordinator: retrying on shard %s (attempt %d)", addr, attempt))
		}
		data, err := c.runOn(ctx, j, c.shards[addr], stolen, attempt)
		if !errors.As(err, new(shardError)) {
			return data, err
		}
		attempt++
	}
}

// pickShard chooses the next shard for a key: the first untried ready node
// in the key's ring sequence, except that an overloaded owner is skipped
// in favor of the first idle candidate (a steal). Returns "" when no
// untried ready shard exists.
func (c *Coordinator) pickShard(key string, tried map[string]bool) (addr string, stolen bool) {
	var candidates []*shard
	for _, a := range c.ring.sequence(key) {
		if sh := c.shards[a]; !tried[a] && sh.isReady() {
			candidates = append(candidates, sh)
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	owner := candidates[0]
	if owner.load() >= c.cfg.StealLoad {
		for _, cand := range candidates[1:] {
			if cand.load() == 0 {
				return cand.addr, true
			}
		}
	}
	return owner.addr, false
}

// runOn runs the job on one shard. It returns a shardError when the shard
// failed and the job should move on; any other error is authoritative (the
// job failed on the shard, or was canceled).
func (c *Coordinator) runOn(ctx context.Context, j *serve.Job, sh *shard, stolen bool, attempt int) ([]byte, error) {
	sh.addDispatched(1)
	defer sh.addDispatched(-1)
	ctx, span := j.Tracer().StartSpanCtx(ctx, "remote")
	span.Annotate(obs.F("attempt", float64(attempt)))
	defer span.End()

	data, err := c.tryShard(ctx, j, sh, stolen)
	if err != nil && ctx.Err() != nil {
		// The job was canceled, not the shard failed: pass the cancel on.
		c.cancelOn(j.ID, sh.addr)
		return nil, ctx.Err()
	}
	var se shardError
	if errors.As(err, &se) {
		sh.markDown() // until the heartbeat revives it
		c.reg.Counter(obs.Labeled("cluster.retries", "shard", sh.addr)).Inc()
		c.jobLog(j).Warn("shard failed; rerouting job",
			"shard", sh.addr, "stage", se.stage, "error", se.err.Error())
	}
	return data, err
}

// tryShard forwards the job to the shard and follows it there; shard
// failures come back as shardError.
func (c *Coordinator) tryShard(ctx context.Context, j *serve.Job, sh *shard, stolen bool) ([]byte, error) {
	st, err := c.forward(ctx, j, sh.addr)
	if err != nil {
		return nil, shardError{"forward", err}
	}
	c.reg.Counter(obs.Labeled("cluster.forwards", "shard", sh.addr)).Inc()
	if stolen {
		c.reg.Counter(obs.Labeled("cluster.steals", "shard", sh.addr)).Inc()
		c.jobLog(j).Info("job stolen onto idle shard", "shard", sh.addr, "owner", c.ring.owner(j.ID))
	} else {
		c.jobLog(j).Info("job forwarded", "shard", sh.addr)
	}
	remoteHit := st.State == serve.StateDone
	if remoteHit {
		// The shard answered from its store: nothing to follow.
		c.reg.Counter(obs.Labeled("cluster.remote_hits", "shard", sh.addr)).Inc()
	} else if st, err = c.follow(ctx, j, sh); err != nil {
		return nil, err
	}
	switch st.State {
	case serve.StateFailed:
		return nil, errors.New(st.Error)
	case serve.StateCanceled:
		// Canceled on the worker without our asking (its drain deadline
		// hit): treat as a shard failure and rerun elsewhere.
		return nil, shardError{"remote cancel", errors.New("shard canceled the job")}
	}

	_, span := j.Tracer().StartSpanCtx(ctx, "fetch")
	defer span.End()
	data, err := c.get(ctx, sh.addr+"/v1/jobs/"+j.ID+"/result")
	if err == nil && !json.Valid(data) {
		err = fmt.Errorf("shard returned a torn result")
	}
	if err != nil {
		return nil, shardError{"result fetch", err}
	}
	span.Annotate(obs.F("bytes", float64(len(data))))
	c.jobLog(j).Info("job done", "shard", sh.addr, "bytes", len(data), "remote_hit", remoteHit)
	return data, nil
}

// forward POSTs the job spec to a shard, with the job's trace ID pinned in
// the spec so the worker's spans and log lines join this trace.
func (c *Coordinator) forward(ctx context.Context, j *serve.Job, addr string) (serve.JobStatus, error) {
	spec := j.Spec
	spec.TraceID = j.TraceID()
	data, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/jobs", bytes.NewReader(data))
	if err != nil {
		return serve.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return serve.JobStatus{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		// 429 (shard queue full) and 503 (shard draining) are routing
		// signals, not job failures: the next candidate gets the job.
		return serve.JobStatus{}, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var st serve.JobStatus
	return st, json.Unmarshal(body, &st)
}

// follow relays the shard's event stream for the job into the job's own
// stream until the shard's done event, then returns the job's status
// there. A broken stream costs one status check: a job still live on the
// shard gets its stream reopened (skipping the lines already relayed,
// which the shard replays); a failed check fails the shard.
func (c *Coordinator) follow(ctx context.Context, j *serve.Job, sh *shard) (serve.JobStatus, error) {
	relayed := 0
	for {
		seen := 0
		state, err := c.readStream(ctx, sh.addr+"/v1/jobs/"+j.ID+"/events", func(line string) {
			if seen++; seen > relayed {
				relayed++
				j.Publish(line)
			}
		})
		if err == nil && state != serve.StateFailed {
			return serve.JobStatus{State: state}, nil
		}
		if ctx.Err() != nil {
			return serve.JobStatus{}, ctx.Err()
		}
		// One status check tells a broken stream over a live job from a
		// failed shard, and carries a failed job's error message.
		var st serve.JobStatus
		statusCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		serr := c.getJSON(statusCtx, sh.addr+"/v1/jobs/"+j.ID, &st)
		cancel()
		switch {
		case serr != nil && err != nil:
			return serve.JobStatus{}, shardError{"event stream", err}
		case serr != nil:
			return serve.JobStatus{State: state, Error: "job failed on shard " + sh.addr}, nil
		case st.State != serve.StateQueued && st.State != serve.StateRunning:
			return st, nil
		}
		// Still live there: reopen after a heartbeat interval, so a shard
		// whose streams keep breaking is not spun on.
		select {
		case <-ctx.Done():
			return serve.JobStatus{}, ctx.Err()
		case <-time.After(c.cfg.HeartbeatEvery):
		}
	}
}

// readStream reads one event stream until its done event, whose state it
// returns. A stream silent for longer than streamIdle is cut: the shard
// sends keepalives, so silence means a dead connection.
func (c *Coordinator) readStream(ctx context.Context, url string, fn func(string)) (serve.JobState, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	idle := time.AfterFunc(streamIdle, cancel)
	defer idle.Stop()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return serve.ReadEvents(idleReader{resp.Body, idle}, fn)
}

// idleReader restarts an idle timer on every read.
type idleReader struct {
	r     io.Reader
	timer *time.Timer
}

func (r idleReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.timer.Reset(streamIdle)
	return n, err
}

// cancelOn forwards a cancellation to the shard running the job.
func (c *Coordinator) cancelOn(id, addr string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, addr+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}
}

func (c *Coordinator) jobLog(j *serve.Job) *slog.Logger {
	return c.log.With("job_id", j.ID, "trace_id", j.TraceID())
}
