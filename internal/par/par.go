// Package par provides the bounded worker pool shared by the profiler's
// embarrassingly parallel hot loops: per-packet frontier stepping in the
// symbolic engine, per-path model-counting queries (the paper's LattE calls,
// which Figure 7 shows dominating exploration time), and the concrete
// sampling fallback.
//
// The pool is a degree-of-parallelism plus a metrics aggregator, not a set
// of long-lived goroutines: each Run spawns at most Workers() goroutines for
// the batch (cheap next to a single model-counting query) and accumulates
// per-worker busy time across batches, so utilization is observable over a
// whole profiling run. Determinism is the caller's contract: tasks write
// only to their own index's slot and callers reduce in index order, so
// results are bit-identical for every worker count — the pool only changes
// the schedule.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Workers resolves a requested degree of parallelism: n <= 0 selects
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Pool is a bounded-parallelism executor. A nil *Pool (or a pool with one
// worker) runs every batch inline on the calling goroutine, so sequential
// callers pay nothing and Workers=1 is exactly the sequential engine.
type Pool struct {
	workers int
	tracer  *obs.Tracer
	span    string // batch span name, "<scope>.batch"

	batches atomic.Int64
	tasks   atomic.Int64
	wallNS  atomic.Int64
	busyNS  []atomic.Int64 // per-worker cumulative busy time
}

// New builds a pool with the given degree of parallelism (<= 0 selects
// GOMAXPROCS). The tracer may be nil; scope labels the pool's trace spans
// (e.g. "sym").
func New(workers int, tr *obs.Tracer, scope string) *Pool {
	w := Workers(workers)
	return &Pool{workers: w, tracer: tr, span: scope + ".batch", busyNS: make([]atomic.Int64, w)}
}

// Workers returns the pool's degree of parallelism (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run executes fn(i) for every i in [0, n), fanning tasks out across the
// pool's workers. Tasks are claimed from an atomic cursor, so scheduling is
// work-stealing-like; callers that need determinism must make fn(i) write
// only to slot i and reduce in index order afterwards.
//
// The first error (by lowest task index) is returned, matching what a
// sequential in-order loop would report; once any task errors, remaining
// unclaimed tasks are skipped. The context is checked before each claim:
// cancellation surfaces as ctx.Err() unless an earlier-indexed task failed
// first.
func (p *Pool) Run(ctx context.Context, n int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		return p.runInline(ctx, n, fn)
	}

	// The batch span parents under whatever span the caller's context
	// carries (an iteration span, the sampling stage, ...), so pool fan-outs
	// render nested inside the phase that issued them. It also times the
	// batch, traced or not.
	_, span := p.tracer.StartSpanCtx(ctx, p.span)

	var cursor atomic.Int64
	var stop atomic.Bool
	// First error by lowest task index, so the parallel schedule reports
	// exactly what a sequential in-order loop would have reported.
	errIdx := int64(n)
	var errVal error
	var errMu sync.Mutex
	record := func(i int, err error) {
		errMu.Lock()
		if int64(i) < errIdx {
			errIdx, errVal = int64(i), err
		}
		errMu.Unlock()
		stop.Store(true)
	}

	var wg sync.WaitGroup
	var batchBusy atomic.Int64
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			busy := time.Duration(0)
			for !stop.Load() {
				if err := ctx.Err(); err != nil {
					record(n-1, err) // lowest-index real failure still wins
					break
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				t0 := time.Now()
				err := fn(i)
				busy += time.Since(t0)
				p.tasks.Add(1)
				if err != nil {
					record(i, err)
					break
				}
			}
			p.busyNS[wk].Add(int64(busy))
			batchBusy.Add(int64(busy))
		}(wk)
	}
	wg.Wait()

	wall := span.End()
	p.batches.Add(1)
	p.wallNS.Add(int64(wall))
	util := 0.0
	if wall > 0 {
		util = time.Duration(batchBusy.Load()).Seconds() / (wall.Seconds() * float64(w))
	}
	span.Annotate(obs.F("tasks", float64(n)), obs.F("workers", float64(w)),
		obs.F("util", util))
	if errVal != nil {
		return errVal
	}
	return nil
}

// runInline is the Workers<=1 fast path: no goroutines, no spans, identical
// control flow to a plain sequential loop (including its early-exit-on-error
// semantics), with a stride-64 context check.
func (p *Pool) runInline(ctx context.Context, n int, fn func(int) error) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	if p != nil {
		d := time.Since(start)
		p.batches.Add(1)
		p.tasks.Add(int64(n))
		p.wallNS.Add(int64(d))
		p.busyNS[0].Add(int64(d))
	}
	return nil
}

// Metrics snapshots the pool for the obs registry: worker count, batches,
// tasks, cumulative wall seconds, and per-worker utilization (busy time over
// pool wall time).
func (p *Pool) Metrics() map[string]float64 {
	if p == nil {
		return map[string]float64{"workers": 1}
	}
	out := map[string]float64{
		"workers":  float64(p.workers),
		"batches":  float64(p.batches.Load()),
		"tasks":    float64(p.tasks.Load()),
		"wall_sec": time.Duration(p.wallNS.Load()).Seconds(),
	}
	wall := time.Duration(p.wallNS.Load()).Seconds()
	totalBusy := 0.0
	for i := range p.busyNS {
		busy := time.Duration(p.busyNS[i].Load()).Seconds()
		totalBusy += busy
		u := 0.0
		if wall > 0 {
			u = busy / wall
		}
		out["worker"+itoa(i)+".util"] = u
	}
	if wall > 0 {
		out["utilization"] = totalBusy / (wall * float64(p.workers))
	}
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
