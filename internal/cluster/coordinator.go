package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Config tunes the coordinator.
type Config struct {
	// Config is the job service the coordinator runs: QueueDepth,
	// TenantQuota and TenantWeights shape its queue, StoreCap bounds its
	// hot-result LRU, JobWorkers is how many jobs it keeps in flight across
	// the fleet at once (default 2 per worker, matching each daemon's
	// default job concurrency), plus ReplayCap, Registry and Logger. The
	// coordinator owns no engine, so its store is memory-only (StoreDir is
	// ignored) and the engine fields are unused.
	serve.Config
	// Workers lists the shard daemons' base addresses (host:port or URL).
	// The consistent-hash ring is built over this list; order is
	// irrelevant, duplicates are dropped.
	Workers []string
	// StealLoad is the in-flight count past which a shard counts as
	// overloaded; an overloaded owner's job is stolen by the first idle
	// shard in its ring sequence (default 4).
	StealLoad int
	// HeartbeatEvery is the shard stats poll interval (default 1s).
	HeartbeatEvery time.Duration
}

// shard is the coordinator's view of one worker daemon.
type shard struct {
	addr string // canonical base URL

	mu         sync.Mutex
	alive      bool
	ready      bool // alive and not draining
	lastSeen   time.Time
	stats      serve.NodeStats
	dispatched int // jobs this coordinator has in flight here
}

func (sh *shard) isReady() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ready
}

// load is the coordinator's own in-flight count on the shard — always
// current, unlike heartbeat stats, so steal decisions never act on stale
// data.
func (sh *shard) load() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dispatched
}

func (sh *shard) addDispatched(d int) {
	sh.mu.Lock()
	sh.dispatched += d
	sh.mu.Unlock()
}

// markDown flips the shard dead immediately (a failed forward or stream);
// the next heartbeat may revive it.
func (sh *shard) markDown() {
	sh.mu.Lock()
	sh.alive = false
	sh.ready = false
	sh.mu.Unlock()
}

// Coordinator routes jobs across a fleet of p4wnd workers. It is a
// serve.Server — the same job API, queue, store and drain as a single
// daemon, plus /v1/cluster/status — whose Runner dispatches each job on a
// consistent-hash ring instead of running an engine. Every result is
// computed by a shard and content-addressed identically to a single-node
// run.
type Coordinator struct {
	*serve.Server

	cfg    Config
	reg    *obs.Registry
	log    *slog.Logger
	client *http.Client // bounded shard calls
	stream *http.Client // event streams: a job may outlast any timeout
	ring   *ring
	shards map[string]*shard // fixed at New

	ctx    context.Context // heartbeat lifetime, ended by Stop
	cancel context.CancelFunc
	hbWG   sync.WaitGroup
}

// New builds a Coordinator over the configured workers and starts its
// dispatchers and heartbeat loop.
func New(cfg Config) (*Coordinator, error) {
	if cfg.JobWorkers == 0 {
		cfg.JobWorkers = 2 * len(cfg.Workers)
	}
	cfg.StoreDir = ""
	cfg.Config = cfg.Config.WithDefaults()
	if cfg.StealLoad == 0 {
		cfg.StealLoad = 4
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = time.Second
	}
	var addrs []string
	for _, w := range cfg.Workers {
		if a := canonicalAddr(w); a != "" {
			addrs = append(addrs, a)
		}
	}
	c := &Coordinator{
		cfg:    cfg,
		reg:    cfg.Registry,
		log:    cfg.Logger,
		client: &http.Client{Timeout: 30 * time.Second},
		stream: &http.Client{},
		ring:   newRing(addrs, ringReplicas),
		shards: map[string]*shard{},
	}
	if len(c.ring.nodes) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one valid worker address, got %v", cfg.Workers)
	}
	for _, a := range c.ring.nodes {
		c.shards[a] = &shard{addr: a}
	}
	c.reg.RegisterView("cluster.shard", c.viewShards)
	c.reg.SetHelp("cluster.forwards", "Jobs forwarded to each shard.")
	c.reg.SetHelp("cluster.steals", "Jobs diverted to an idle shard off an overloaded ring owner.")
	c.reg.SetHelp("cluster.retries", "Jobs re-routed after a shard failed mid-flight.")
	c.reg.SetHelp("cluster.remote_hits", "Results answered from a shard's store with no engine run.")
	// Probe the fleet synchronously once so the first submission routes on
	// real liveness, then keep polling in the background.
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.heartbeatOnce()
	srv, err := serve.NewWithRunner(cfg.Config, c)
	if err != nil {
		c.cancel()
		return nil, err
	}
	c.Server = srv
	c.hbWG.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// canonicalAddr normalizes a worker address to a scheme-qualified base URL
// without a trailing slash.
func canonicalAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// Namespace puts the coordinator's job metrics under "cluster.".
func (c *Coordinator) Namespace() string { return "cluster" }

// Stop ends the heartbeat; the server calls it once its last dispatcher
// has parked. The heartbeat keeps running while jobs drain, because shard
// liveness still matters for reroutes.
func (c *Coordinator) Stop() {
	c.cancel()
	c.hbWG.Wait()
}

// Workers returns the canonical shard addresses on the ring.
func (c *Coordinator) Workers() []string {
	return append([]string(nil), c.ring.nodes...)
}

// Handler returns the job API every daemon serves plus the cluster status
// endpoint, with the coordinator's role named in /v1/healthz.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.Server.Handler())
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		state := "serving"
		if c.Draining() {
			state = "draining"
		}
		serve.WriteJSON(w, http.StatusOK, map[string]string{"state": state, "role": "coordinator"})
	})
	mux.HandleFunc("GET /v1/cluster/status", func(w http.ResponseWriter, _ *http.Request) {
		serve.WriteJSON(w, http.StatusOK, c.Status())
	})
	return mux
}

// viewShards is the "cluster.shard." gauge view: per-shard load and
// liveness, labeled by shard address.
func (c *Coordinator) viewShards() map[string]float64 {
	out := map[string]float64{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		alive, ready := 0.0, 0.0
		if sh.alive {
			alive = 1
		}
		if sh.ready {
			ready = 1
		}
		out[obs.Labeled("alive", "shard", sh.addr)] = alive
		out[obs.Labeled("ready", "shard", sh.addr)] = ready
		out[obs.Labeled("queue_depth", "shard", sh.addr)] = float64(sh.stats.QueueDepth)
		out[obs.Labeled("running", "shard", sh.addr)] = float64(sh.stats.Running)
		out[obs.Labeled("dispatched", "shard", sh.addr)] = float64(sh.dispatched)
		sh.mu.Unlock()
	}
	return out
}

// Status assembles the cluster status wire form.
func (c *Coordinator) Status() ClusterStatus {
	ns := c.Stats()
	st := ClusterStatus{
		Draining:      ns.State == "draining",
		Pending:       ns.QueueDepth,
		Jobs:          ns.Jobs,
		Tenants:       ns.Tenants,
		CacheResident: ns.StoreResident,
		CacheHits:     int64(c.Store().Metrics()["hits_total"]),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		row := ShardStatus{
			Addr:       sh.addr,
			Alive:      sh.alive,
			Ready:      sh.ready,
			QueueDepth: sh.stats.QueueDepth,
			Running:    sh.stats.Running,
			JobWorkers: sh.stats.JobWorkers,
			Dispatched: sh.dispatched,
		}
		if !sh.lastSeen.IsZero() {
			row.LastSeen = sh.lastSeen.UTC().Format(time.RFC3339Nano)
		}
		sh.mu.Unlock()
		row.Forwards = c.reg.Counter(obs.Labeled("cluster.forwards", "shard", sh.addr)).Value()
		row.Steals = c.reg.Counter(obs.Labeled("cluster.steals", "shard", sh.addr)).Value()
		row.RemoteHits = c.reg.Counter(obs.Labeled("cluster.remote_hits", "shard", sh.addr)).Value()
		row.Retries = c.reg.Counter(obs.Labeled("cluster.retries", "shard", sh.addr)).Value()
		st.Shards = append(st.Shards, row)
	}
	sort.Slice(st.Shards, func(i, j int) bool { return st.Shards[i].Addr < st.Shards[j].Addr })
	return st
}

// heartbeatLoop polls every shard's /v1/stats on the configured cadence.
func (c *Coordinator) heartbeatLoop() {
	defer c.hbWG.Done()
	tick := time.NewTicker(c.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
			c.heartbeatOnce()
		}
	}
}

// heartbeatOnce polls all shards concurrently with a bounded per-probe
// timeout. A reachable shard is alive; it is ready only while serving
// (draining shards finish their work but receive nothing new). The probe
// timeout is floored at 1s regardless of how fast the cadence is: a busy
// worker answering stats slowly is degraded, not dead, and a fleet-wide
// false "all down" would fail jobs that a moment's patience would save.
func (c *Coordinator) heartbeatOnce() {
	timeout := min(max(c.cfg.HeartbeatEvery, time.Second), 2*time.Second)
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(c.ctx, timeout)
			defer cancel()
			var st serve.NodeStats
			err := c.getJSON(ctx, sh.addr+"/v1/stats", &st)
			sh.mu.Lock()
			wasAlive := sh.alive
			if err != nil {
				sh.alive, sh.ready = false, false
			} else {
				sh.alive = true
				sh.ready = st.State == "serving"
				sh.stats = st
				sh.lastSeen = time.Now()
			}
			nowAlive := sh.alive
			sh.mu.Unlock()
			if wasAlive != nowAlive {
				if nowAlive {
					c.log.Info("shard up", "shard", sh.addr)
				} else {
					c.log.Warn("shard down", "shard", sh.addr, "error", err.Error())
				}
			}
		}(sh)
	}
	wg.Wait()
}

// get performs one bounded GET against a shard and returns the body of a
// 200 answer; any other status is an error.
func (c *Coordinator) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, nil
}

// getJSON is get with the body decoded into out.
func (c *Coordinator) getJSON(ctx context.Context, url string, out any) error {
	body, err := c.get(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// Remote answers a request about a job the coordinator never routed (or
// whose result its LRU evicted): the same API path is asked of each ready
// shard in the key's ring sequence, owner first, and the first 200 wins.
func (c *Coordinator) Remote(ctx context.Context, id, path string) ([]byte, bool) {
	for _, addr := range c.ring.sequence(id) {
		if !c.shards[addr].isReady() {
			continue
		}
		reqCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
		data, err := c.get(reqCtx, addr+path)
		cancel()
		if err != nil {
			continue
		}
		if strings.HasSuffix(path, "/result") {
			c.reg.Counter(obs.Labeled("cluster.remote_hits", "shard", addr)).Inc()
			c.log.Info("remote cache hit", "job_id", id, "shard", addr)
		}
		return data, true
	}
	return nil, false
}
