package serve

import (
	"fmt"
	"testing"
	"time"
)

func qjob(tenant, id string) *Job {
	return newJob(id, JobSpec{Program: id, Tenant: tenant}, time.Unix(0, 0), 0)
}

func pushN(t *testing.T, q *queue, tenant string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := q.push(qjob(tenant, fmt.Sprintf("%s-%d", tenant, i))); err != nil {
			t.Fatalf("push %s #%d: %v", tenant, i, err)
		}
	}
}

// Under sustained backlog, dispatches must track the configured weights:
// a weight-3 tenant gets three dispatches for every one a weight-1 tenant
// gets, and within each tenant order stays FIFO.
func TestFairQueueWeightedShare(t *testing.T) {
	q := newQueue(256, 64, map[string]float64{"heavy": 3, "light": 1})
	pushN(t, q, "heavy", 40)
	pushN(t, q, "light", 40)

	counts := map[string]int{}
	lastIdx := map[string]int{"heavy": -1, "light": -1}
	for i := 0; i < 40; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		counts[j.Spec.Tenant]++
		var idx int
		fmt.Sscanf(j.ID, j.Spec.Tenant+"-%d", &idx)
		if idx <= lastIdx[j.Spec.Tenant] {
			t.Fatalf("tenant %s dispatched %d after %d: not FIFO", j.Spec.Tenant, idx, lastIdx[j.Spec.Tenant])
		}
		lastIdx[j.Spec.Tenant] = idx
	}
	if counts["heavy"] < 27 || counts["heavy"] > 33 {
		t.Fatalf("weight-3 tenant got %d of 40 dispatches, want ~30 (weight-1 got %d)",
			counts["heavy"], counts["light"])
	}
}

// The per-tenant quota must bound one tenant's backlog without touching
// the others, and the global cap must bound the sum.
func TestFairQueueQuotaAndCapacity(t *testing.T) {
	q := newQueue(6, 4, nil)
	pushN(t, q, "greedy", 4)
	if err := q.push(qjob("greedy", "greedy-over")); err != ErrTenantQuota {
		t.Fatalf("5th push for quota-4 tenant: err=%v, want ErrTenantQuota", err)
	}
	// Another tenant still has room until the global cap binds.
	pushN(t, q, "other", 2)
	if err := q.push(qjob("third", "third-0")); err != ErrQueueFull {
		t.Fatalf("push past global cap: err=%v, want ErrQueueFull", err)
	}
	snap := q.tenantSnapshot()
	for _, ts := range snap {
		if ts.Name == "greedy" && ts.Rejected != 1 {
			t.Fatalf("greedy rejected=%d, want 1", ts.Rejected)
		}
	}
}

// A tenant returning from idle must start at the current virtual clock:
// no banked credit, so it cannot monopolize the queue to "catch up" on
// bandwidth it never used.
func TestFairQueueIdleTenantNoBankedCredit(t *testing.T) {
	q := newQueue(256, 64, nil)
	// Tenant a runs alone for a while, advancing its vtime well past zero.
	pushN(t, q, "a", 10)
	for i := 0; i < 10; i++ {
		q.pop()
	}
	// Tenant b arrives fresh with a big backlog; a also has more work.
	pushN(t, q, "b", 10)
	pushN(t, q, "a", 10)
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		j, _ := q.pop()
		counts[j.Spec.Tenant]++
	}
	// Equal weights: the window must interleave, not be all-b.
	if counts["a"] < 3 || counts["b"] < 3 {
		t.Fatalf("post-idle window dispatched a=%d b=%d, want roughly even", counts["a"], counts["b"])
	}
}

// close stops intake immediately but lets queued jobs drain; pop returns
// false only once the backlog is gone.
func TestFairQueueCloseDrains(t *testing.T) {
	q := newQueue(256, 64, nil)
	pushN(t, q, "a", 3)
	q.close()
	if err := q.push(qjob("a", "late")); err != ErrDraining {
		t.Fatalf("push after close: err=%v, want ErrDraining", err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatalf("pop %d after close: queue refused its own backlog", i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a closed empty queue returned a job")
	}
}

// A blocked pop must wake on close (dispatcher shutdown path).
func TestFairQueuePopWakesOnClose(t *testing.T) {
	q := newQueue(256, 64, nil)
	done := make(chan bool)
	go func() {
		_, ok := q.pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop returned a job from an empty closed queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pop never woke after close")
	}
}

// Within a tenant, higher priority pops first and equal priorities pop in
// submission order.
func TestQueuePriorityThenFIFOWithinTenant(t *testing.T) {
	q := newQueue(64, 0, nil)
	for i, prio := range []int{0, 5, 0, 5, 9} {
		j := qjob("", fmt.Sprintf("p%d-%d", prio, i))
		j.Spec.Priority = prio
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 5; i++ {
		j, _ := q.pop()
		got = append(got, j.ID)
	}
	want := []string{"p9-4", "p5-1", "p5-3", "p0-0", "p0-2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}
