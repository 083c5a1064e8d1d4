package serve

import (
	"container/heap"
	"errors"
	"sort"
	"sync"
)

// Queue errors; the HTTP layer maps a full queue and a spent tenant quota
// to 429 + Retry-After (backpressure, not failure) and draining to 503.
var (
	ErrQueueFull   = errors.New("serve: job queue full")
	ErrTenantQuota = errors.New("serve: tenant quota exceeded")
	ErrDraining    = errors.New("serve: server draining")
)

// queue is the bounded job queue: one priority heap per tenant, dequeued
// by weighted fair queueing so a heavy submitter cannot starve the rest.
// Each tenant carries a virtual finish time advanced by 1/weight per popped
// job; pop takes the tenant with the smallest virtual time, which converges
// to throughput proportional to the weights under sustained load. Within a
// tenant, higher Priority pops first, FIFO within a priority. close() stops
// intake while letting workers drain what is already queued.
type queue struct {
	mu   sync.Mutex
	cond *sync.Cond

	weights map[string]float64 // default weight 1
	quota   int                // per-tenant pending bound
	cap     int                // global pending bound

	tenants map[string]*tenantQ
	size    int
	seq     uint64
	clock   float64 // virtual time of the last pop
	closed  bool
}

type tenantQ struct {
	name  string
	jobs  jobHeap
	vtime float64
	// rejected counts pushes refused by this tenant's quota.
	rejected int64
}

// newQueue bounds the queue at capacity jobs and each tenant at quota
// (quota <= 0 makes the capacity the only bound).
func newQueue(capacity, quota int, weights map[string]float64) *queue {
	if quota <= 0 {
		quota = capacity
	}
	q := &queue{
		weights: map[string]float64{},
		quota:   quota,
		cap:     capacity,
		tenants: map[string]*tenantQ{},
	}
	for k, w := range weights {
		if w > 0 {
			q.weights[k] = w
		}
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) weight(tenant string) float64 {
	if w, ok := q.weights[tenant]; ok {
		return w
	}
	return 1
}

// push enqueues a job under its tenant, assigning its FIFO sequence number.
// The global bound is checked before the tenant's quota, so a queue whose
// quota equals its capacity refuses exactly like an untenanted one.
func (q *queue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if q.size >= q.cap {
		return ErrQueueFull
	}
	t, ok := q.tenants[j.Spec.Tenant]
	if !ok {
		t = &tenantQ{name: j.Spec.Tenant}
		q.tenants[t.name] = t
	}
	if len(t.jobs) >= q.quota {
		t.rejected++
		return ErrTenantQuota
	}
	if len(t.jobs) == 0 && t.vtime < q.clock {
		// A tenant returning from idle starts at the current virtual time:
		// it must not burn banked credit and lock everyone else out.
		t.vtime = q.clock
	}
	q.seq++
	j.seq = q.seq
	heap.Push(&t.jobs, j)
	q.size++
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available or the queue is closed and empty.
// Among backlogged tenants it picks the smallest virtual finish time (ties
// broken by name for determinism), then advances that tenant's clock by
// 1/weight. Jobs canceled while queued are discarded here (their state is
// already terminal), so cancellation needs no heap surgery.
func (q *queue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		var best *tenantQ
		for _, t := range q.tenants {
			if len(t.jobs) == 0 {
				continue
			}
			if best == nil || t.vtime < best.vtime || (t.vtime == best.vtime && t.name < best.name) {
				best = t
			}
		}
		if best == nil {
			if q.closed {
				return nil, false
			}
			q.cond.Wait()
			continue
		}
		j := heap.Pop(&best.jobs).(*Job)
		q.size--
		if j.State() == StateCanceled {
			continue
		}
		q.clock = best.vtime
		best.vtime += 1 / q.weight(best.name)
		return j, true
	}
}

// close stops intake and wakes every waiting worker; queued jobs still pop.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth returns the current queue length (including canceled stragglers).
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// tenantSnapshot reports per-tenant backlog, sorted by name.
func (q *queue) tenantSnapshot() []TenantStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantStatus, 0, len(q.tenants))
	for _, t := range q.tenants {
		out = append(out, TenantStatus{
			Name:     t.name,
			Weight:   q.weight(t.name),
			Pending:  len(t.jobs),
			Rejected: t.rejected,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// jobHeap orders by priority descending, then submission sequence
// ascending.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Spec.Priority != h[j].Spec.Priority {
		return h[i].Spec.Priority > h[j].Spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return out
}
