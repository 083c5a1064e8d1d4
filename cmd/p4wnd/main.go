// Command p4wnd is the P4wn profiling daemon: a long-running service that
// accepts profiling and adversarial-generation jobs over a JSON HTTP API,
// runs them through the shared engine with a bounded job queue, and serves
// results from a content-addressed store so identical submissions never
// recompute.
//
//	p4wnd -addr :8471 -store results/store -log-format json
//
// API (see `p4wn submit|status|result|cancel|trace` for the client side):
//
//	POST   /v1/jobs             submit a job spec (429 + Retry-After on a
//	                            full queue; 200 when served from the store)
//	GET    /v1/jobs             list known jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result stored result JSON (202 while running)
//	GET    /v1/jobs/{id}/events live progress stream (Server-Sent Events)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/healthz          serving | draining
//	GET    /v1/stats            load snapshot (queue, running, tenants)
//	GET    /metrics             Prometheus text exposition (+ expvar, pprof)
//	GET    /debug/trace/{id}    job span tree as Chrome trace_event JSON
//
// Logs are structured (log/slog): -log-format selects text or json,
// -log-level the threshold, and the P4WND_LOG environment variable supplies
// defaults for both as "format" or "format:level" (e.g. "json:debug") when
// the flags are not set. Every job-scoped record carries job_id and
// trace_id, so log lines join against /debug/trace exports.
//
// SIGTERM/SIGINT drains gracefully: intake stops (submissions get 503),
// in-flight and queued jobs finish and store their results, then the
// process exits 0. A second signal — or -drain-timeout expiring — cancels
// the remaining jobs and exits nonzero.
//
// # Coordinator mode
//
//	p4wnd -coordinator -addr :8470 -workers 127.0.0.1:8471,127.0.0.1:8472
//
// With -coordinator the process is the same job service with a different
// runner: instead of an engine, each job is dispatched to one of the listed
// worker daemons by consistent hashing on its content-addressed ID, and the
// coordinator follows the worker's event stream to completion, relaying
// its progress lines to its own subscribers. Repeats are answered from an
// in-memory result LRU (-store-cap; no -store directory is written) or the
// ring owner's store, overloaded shards have work stolen onto idle ones,
// and per-tenant quotas apply with weighted-fair dispatch (-tenant-quota,
// -tenant-weights "alice=3,bob=1"). -dispatchers bounds the jobs in flight
// across the fleet. The job API is identical to a single daemon's, so p4wn
// needs no new flags to use it; GET /v1/cluster/status adds the shard
// table (`p4wn cluster status`). In this mode -workers takes the
// comma-separated worker addresses instead of the per-job profiler
// parallelism. /healthz and /readyz report liveness and readiness in both
// modes; a draining process fails /readyz first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// envLogDefaults parses P4WND_LOG ("format" or "format:level") into
// defaults for the -log-format and -log-level flags.
func envLogDefaults() (format, level string) {
	format, level = "text", "info"
	env := strings.TrimSpace(os.Getenv("P4WND_LOG"))
	if env == "" {
		return format, level
	}
	f, l, ok := strings.Cut(env, ":")
	if f = strings.TrimSpace(f); f != "" {
		format = f
	}
	if ok {
		if l = strings.TrimSpace(l); l != "" {
			level = l
		}
	}
	return format, level
}

// buildLogger resolves the format/level pair into a slog.Logger writing to
// stderr. Unknown values are reported, not defaulted silently.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
}

func main() {
	fs := flag.NewFlagSet("p4wnd", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: p4wnd [-addr host:port] [-store dir] [-queue n] [-jobs n] [-workers n] [-job-timeout d] [-max-job-timeout d] [-drain-timeout d] [-store-cap n] [-max-paths n] [-replay-cap n] [-log-format text|json] [-log-level debug|info|warn|error]")
		fmt.Fprintln(os.Stderr, "       p4wnd -coordinator -workers addr1,addr2,... [-addr host:port] [-tenant-quota n] [-tenant-weights a=3,b=1] [-queue n] [-dispatchers n] [-steal-load n] [-store-cap n] [-heartbeat d] [-drain-timeout d]")
	}
	defFormat, defLevel := envLogDefaults()
	addr := fs.String("addr", "127.0.0.1:8471", "listen address")
	storeDir := fs.String("store", "results/store", "content-addressed result store directory")
	storeCap := fs.Int("store-cap", 256, "in-memory result cache entries (with -coordinator, the only result cache)")
	queueDepth := fs.Int("queue", 64, "queued-job bound (past it submissions get 429)")
	jobWorkers := fs.Int("jobs", 2, "jobs run concurrently")
	workersFlag := fs.String("workers", "0", "per-job profiler parallelism (0 = GOMAXPROCS); with -coordinator, the comma-separated worker daemon addresses")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "default per-job wall-clock bound")
	maxJobTimeout := fs.Duration("max-job-timeout", 30*time.Minute, "clamp on requested job timeouts")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "graceful-drain bound on shutdown")
	maxPaths := fs.Int("max-paths", 1<<20, "per-job MaxPaths quota (<0 disables)")
	replayCap := fs.Int("replay-cap", 4096, "per-job SSE replay buffer bound in lines")
	coordinator := fs.Bool("coordinator", false, "run as a fleet coordinator over -workers instead of an engine daemon")
	tenantQuota := fs.Int("tenant-quota", 32, "coordinator: pending-submission bound per tenant (past it: 429)")
	tenantWeights := fs.String("tenant-weights", "", "coordinator: fair-share weights as name=weight,... (unlisted tenants weigh 1)")
	dispatchers := fs.Int("dispatchers", 0, "coordinator: fleet-wide in-flight job bound (0 = 2 per worker)")
	stealLoad := fs.Int("steal-load", 4, "coordinator: in-flight count past which an idle shard steals the owner's job")
	heartbeat := fs.Duration("heartbeat", time.Second, "coordinator: shard stats poll interval")
	logFormat := fs.String("log-format", defFormat, "log output format: text or json (default from P4WND_LOG)")
	logLevel := fs.String("log-level", defLevel, "log threshold: debug, info, warn, or error")
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "p4wnd: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p4wnd: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err.Error())
		os.Exit(1)
	}

	var (
		daemon interface {
			Handler() http.Handler
			Drain(context.Context) error
		}
		readyMsg   string
		readyAttrs []any
	)
	if *coordinator {
		weights, err := parseWeights(*tenantWeights)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p4wnd: -tenant-weights: %v\n", err)
			os.Exit(2)
		}
		workers := splitWorkers(*workersFlag)
		if len(workers) == 0 {
			fmt.Fprintln(os.Stderr, "p4wnd: -coordinator needs -workers addr1,addr2,...")
			os.Exit(2)
		}
		coord, err := cluster.New(cluster.Config{
			Config: serve.Config{
				StoreCap:      *storeCap,
				QueueDepth:    *queueDepth,
				TenantQuota:   *tenantQuota,
				TenantWeights: weights,
				JobWorkers:    *dispatchers,
				ReplayCap:     *replayCap,
				Logger:        logger,
			},
			Workers:        workers,
			StealLoad:      *stealLoad,
			HeartbeatEvery: *heartbeat,
		})
		if err != nil {
			fatal("start coordinator", err)
		}
		daemon = coord
		readyMsg, readyAttrs = "coordinating", []any{"workers", strings.Join(coord.Workers(), ",")}
	} else {
		profWorkers, err := strconv.Atoi(strings.TrimSpace(*workersFlag))
		if err != nil {
			fmt.Fprintf(os.Stderr, "p4wnd: -workers: %q is not a number (worker-address lists need -coordinator)\n", *workersFlag)
			os.Exit(2)
		}
		srv, err := serve.New(serve.Config{
			StoreDir:          *storeDir,
			StoreCap:          *storeCap,
			QueueDepth:        *queueDepth,
			JobWorkers:        *jobWorkers,
			ProfWorkers:       profWorkers,
			DefaultJobTimeout: *jobTimeout,
			MaxJobTimeout:     *maxJobTimeout,
			MaxPathsQuota:     *maxPaths,
			ReplayCap:         *replayCap,
			Logger:            logger,
		})
		if err != nil {
			fatal("start server", err)
		}
		daemon = srv
		readyMsg, readyAttrs = "serving", []any{"store", srv.Store().Dir(), "queue", *queueDepth, "job_workers", *jobWorkers}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	httpSrv := &http.Server{Handler: daemon.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal("serve http", err)
		}
	}()
	logger.Info(readyMsg, append([]any{"addr", "http://" + ln.Addr().String()}, readyAttrs...)...)

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	<-sigCtx.Done()
	stop() // a second signal kills the process the default way
	logger.Info("draining: no new jobs; finishing in-flight work",
		"bound", drainTimeout.String())

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := daemon.Drain(drainCtx)
	// Shut the listener down after the drain so status polls keep working
	// while jobs finish.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	httpSrv.Shutdown(httpCtx)
	if drainErr != nil {
		logger.Error("drain incomplete", "error", drainErr.Error())
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// splitWorkers turns the -coordinator form of -workers into an address list.
func splitWorkers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" && part != "0" {
			out = append(out, part)
		}
	}
	return out
}

// parseWeights parses -tenant-weights ("alice=3,bob=1.5").
func parseWeights(s string) (map[string]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("%q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("%q: weight must be a positive number", part)
		}
		out[strings.TrimSpace(name)] = w
	}
	return out, nil
}
