// Package service exposes the memory-mapped store as a concurrent query
// service: JSON-over-HTTP join, lookup, stats, and health endpoints.
// An "auto" join runs the operator the store prices cheapest through
// its own Explain (a sharded store re-plans each shard through its
// PlanFunc), and every join passes an admission controller that treats
// total mapped-join memory as a budget — the Grace-style memory
// discipline of the paper's testbed applied to serving concurrent
// traffic instead of a single batch join.
package service

import (
	"context"
	"errors"
	"sync"
)

// Admission errors distinguished by the HTTP layer.
var (
	// ErrSaturated means the wait queue is full: the caller should back
	// off and retry (HTTP 429 with Retry-After).
	ErrSaturated = errors.New("service: admission queue full")
	// ErrGrantTooLarge means the request wants more memory than the
	// whole budget, so queueing could never help (HTTP 413).
	ErrGrantTooLarge = errors.New("service: memory grant exceeds total budget")
	// ErrBadGrant means the request asked for a non-positive grant.
	ErrBadGrant = errors.New("service: non-positive memory grant")
)

// waiter is one queued admission request.
type waiter struct {
	bytes   int64
	ready   chan struct{} // closed once the grant is charged to the budget
	granted bool
}

// Admission is the memory-budget admission controller: a byte budget for
// all concurrently executing joins, with a bounded FIFO wait queue.
// Requests are admitted immediately while the budget covers them, wait
// in arrival order when it does not (strict FIFO — a large request at
// the head intentionally blocks later small ones, preventing
// starvation), and are rejected outright once the queue is full.
//
// The invariant the controller maintains — and the one the tests assert
// under concurrency — is used ≤ budget at every instant.
type Admission struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	peakUsed int64
	maxQueue int
	queue    []*waiter

	admitted int64 // grants charged (immediate + after queueing)
	queued   int64 // grants that had to wait
	rejected int64 // ErrSaturated rejections
	canceled int64 // waiters abandoned by context cancellation
}

// NewAdmission creates a controller over a byte budget with at most
// maxQueue waiting requests (0 means no queueing: reject when busy).
func NewAdmission(budget int64, maxQueue int) *Admission {
	if budget < 1 {
		budget = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{budget: budget, maxQueue: maxQueue}
}

// Acquire charges bytes against the budget, waiting in FIFO order when
// the budget is exhausted. It returns nil once the grant is charged; the
// caller must Release exactly the same amount. Context
// cancellation/deadline abandons the wait (the queue slot is freed, and
// a grant that raced with cancellation is given back).
func (a *Admission) Acquire(ctx context.Context, bytes int64) error {
	if bytes <= 0 {
		return ErrBadGrant
	}
	a.mu.Lock()
	if bytes > a.budget {
		a.mu.Unlock()
		return ErrGrantTooLarge
	}
	if len(a.queue) == 0 && a.used+bytes <= a.budget {
		a.charge(bytes)
		a.mu.Unlock()
		return nil
	}
	if len(a.queue) >= a.maxQueue {
		a.rejected++
		a.mu.Unlock()
		return ErrSaturated
	}
	w := &waiter{bytes: bytes, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.queued++
	a.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		defer a.mu.Unlock()
		if w.granted {
			// The grant raced with cancellation: give it back.
			a.used -= w.bytes
			a.grantWaiters()
			a.admitted--
		} else {
			for i, q := range a.queue {
				if q == w {
					a.queue = append(a.queue[:i], a.queue[i+1:]...)
					break
				}
			}
			// Removing a queue-head waiter can unblock smaller waiters
			// behind it that already fit in the budget.
			a.grantWaiters()
		}
		a.canceled++
		return ctx.Err()
	}
}

// Release returns bytes to the budget and admits as many queued waiters
// as now fit, in arrival order.
func (a *Admission) Release(bytes int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.used -= bytes
	if a.used < 0 {
		panic("service: admission released more than acquired")
	}
	a.grantWaiters()
}

// charge records a grant; caller holds mu.
func (a *Admission) charge(bytes int64) {
	a.used += bytes
	if a.used > a.peakUsed {
		a.peakUsed = a.used
	}
	a.admitted++
}

// grantWaiters admits the longest-waiting requests that fit; caller
// holds mu.
func (a *Admission) grantWaiters() {
	for len(a.queue) > 0 && a.used+a.queue[0].bytes <= a.budget {
		w := a.queue[0]
		a.queue = a.queue[1:]
		a.charge(w.bytes)
		w.granted = true
		close(w.ready)
	}
}

// QueueDepth reports how many requests are waiting for admission right
// now — the load signal behind the dynamic Retry-After hint.
func (a *Admission) QueueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// Stats is a point-in-time snapshot of the controller.
type AdmissionStats struct {
	BudgetBytes   int64 `json:"budgetBytes"`
	UsedBytes     int64 `json:"usedBytes"`
	PeakUsedBytes int64 `json:"peakUsedBytes"`
	QueueDepth    int   `json:"queueDepth"`
	MaxQueue      int   `json:"maxQueue"`
	Admitted      int64 `json:"admitted"`
	Queued        int64 `json:"queued"`
	Rejected      int64 `json:"rejected"`
	Canceled      int64 `json:"canceled"`
}

// Stats snapshots the controller's counters and current occupancy.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		BudgetBytes:   a.budget,
		UsedBytes:     a.used,
		PeakUsedBytes: a.peakUsed,
		QueueDepth:    len(a.queue),
		MaxQueue:      a.maxQueue,
		Admitted:      a.admitted,
		Queued:        a.queued,
		Rejected:      a.rejected,
		Canceled:      a.canceled,
	}
}
