// Package exec is the morsel-driven execution layer of the mapped
// store: a work-stealing pool of a fixed number of goroutines onto
// which joins (and any other bulk operation) submit fine-grained tasks
// — "morsels", fixed-size object ranges in the style of Leis et al.'s
// morsel-driven parallelism and of Albutiu et al.'s MPSM join.
//
// The pool decouples CPU parallelism from data layout: the paper's
// structural parallelism runs one process per disk partition (D of
// them), which underuses a host with more cores than partitions and
// oversubscribes one running several joins at once. Here every join
// decomposes into many morsels pulled by Workers goroutines (default
// GOMAXPROCS), and one pool can be shared by all in-flight joins of a
// server so the total CPU fan-out stays bounded by the host.
//
// Scheduling is deterministic-result by construction, not
// deterministic-order: callers must make morsel results order
// independent (the store's JoinStats are commutative sums, so they are
// bit-identical at any worker count).
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Run after Close.
var ErrClosed = errors.New("exec: pool is closed")

// Task is one morsel of work. The worker argument identifies the
// executing pool goroutine (0 ≤ worker < Workers()); callers use it to
// index per-worker accumulators without synchronization.
type Task func(worker int) error

// job tracks one Run call: its remaining morsels, its first error, and
// a failed flag that makes workers skip the job's queued morsels.
type job struct {
	ctx     context.Context
	pending atomic.Int64
	done    chan struct{}
	failed  atomic.Bool
	mu      sync.Mutex
	err     error
}

// fail records the job's first error and marks it failed so queued
// morsels are skipped instead of executed.
func (j *job) fail(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
	j.failed.Store(true)
}

// retire accounts one morsel as finished (executed or skipped).
func (j *job) retire() {
	if j.pending.Add(-1) == 0 {
		close(j.done)
	}
}

type morsel struct {
	j  *job
	fn Task
}

// Pool is a work-stealing pool of a fixed number of worker goroutines.
// Morsels are distributed round-robin across per-worker deques; a
// worker pops its own deque LIFO (locality) and steals FIFO from a
// victim's head when empty. Many Run calls may be in flight at once —
// their morsels interleave on the same workers, which is exactly how a
// server bounds total CPU fan-out across concurrent joins.
type Pool struct {
	workers int

	mu     sync.Mutex // guards deques, queued, busy, rr, closed, and the cond
	cond   *sync.Cond
	deques [][]morsel
	queued int
	busy   int
	peak   int
	rr     int
	closed bool

	steals   atomic.Int64
	executed atomic.Int64
	skipped  atomic.Int64
	jobs     atomic.Int64
	wg       sync.WaitGroup
}

// NewPool starts a pool of the given number of workers; zero or
// negative selects runtime.GOMAXPROCS(0). Close releases the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, deques: make([][]morsel, workers)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// Workers returns the pool's goroutine count.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the pool down: workers drain every queued morsel, then
// exit. Run calls that arrive after Close fail with ErrClosed. Close
// blocks until all workers have exited.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Run submits the tasks as one job and blocks until every one of them
// has retired, returning the job's first error. Cancelling ctx skips
// the job's still-queued morsels, but Run keeps waiting for in-flight
// ones — after Run returns, none of its tasks is executing, so callers
// may tear down the state the tasks reference.
//
// Run must not be called from inside a Task: a nested Run can deadlock
// once every worker is blocked in it.
func (p *Pool) Run(ctx context.Context, tasks []Task) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	jb := p.Begin(ctx)
	jb.Add(tasks...)
	return jb.Wait()
}

// Job is a Run in progress whose task set can still grow: tasks added
// with Add — including from inside one of the job's own tasks — join
// the same job, and Wait blocks until every task, original or added,
// has retired. Every join is one: the last scan morsel of each of its
// stores adds that store's finish tasks, and a finish may add more
// morsels, instead of waiting for a global barrier across all of them.
type Job struct {
	p        *Pool
	j        *job
	accepted bool // the pool has queued one of the job's tasks (p.mu)
	waited   atomic.Bool
}

// Begin opens a job with no tasks yet. The caller must eventually call
// Wait exactly once; Add may be called any number of times before the
// final task retires (in particular, from inside the job's own tasks).
func (p *Pool) Begin(ctx context.Context) *Job {
	j := &job{ctx: ctx, done: make(chan struct{})}
	// One "open" token keeps the job alive until Wait retires it, so an
	// empty or still-filling job never closes done early.
	j.pending.Store(1)
	return &Job{p: p, j: j}
}

// Add enqueues more tasks onto the job. Safe to call from inside one of
// the job's tasks: the calling task has not retired, so the job cannot
// complete concurrently. Add after the pool closed fails the job and
// returns ErrClosed.
func (jb *Job) Add(tasks ...Task) error {
	if len(tasks) == 0 {
		return nil
	}
	jb.j.pending.Add(int64(len(tasks)))
	p := jb.p
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		jb.j.fail(ErrClosed)
		for range tasks {
			jb.j.retire()
		}
		return ErrClosed
	}
	if !jb.accepted {
		jb.accepted = true
		p.jobs.Add(1)
	}
	for _, fn := range tasks {
		p.deques[p.rr] = append(p.deques[p.rr], morsel{j: jb.j, fn: fn})
		p.rr = (p.rr + 1) % p.workers
		p.queued++
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	return nil
}

// Wait retires the job's open token and blocks until every task has
// retired, returning the job's first error (as Run does). Cancelling
// ctx skips still-queued tasks but waits for in-flight ones.
func (jb *Job) Wait() error {
	if jb.waited.Swap(true) {
		panic("exec: Job.Wait called twice")
	}
	jb.j.retire()
	select {
	case <-jb.j.done:
	case <-jb.j.ctx.Done():
		jb.j.fail(jb.j.ctx.Err())
		<-jb.j.done
	}
	jb.j.mu.Lock()
	defer jb.j.mu.Unlock()
	return jb.j.err
}

// worker is one pool goroutine: pop own deque, steal, or sleep.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		m, ok := p.next(id)
		if !ok {
			return
		}
		if m.j.failed.Load() {
			p.skipped.Add(1)
		} else if err := m.j.ctx.Err(); err != nil {
			// A skipped morsel leaves the job incomplete: it fails with
			// the context's error, however Wait wakes.
			m.j.fail(err)
			p.skipped.Add(1)
		} else {
			if err := p.exec(m, id); err != nil {
				m.j.fail(err)
			}
			p.executed.Add(1)
		}
		p.mu.Lock()
		p.busy--
		p.mu.Unlock()
		m.j.retire()
	}
}

// exec runs one morsel, converting a panic into an error so a bad task
// fails its own job instead of killing the shared pool (and with it the
// whole server).
func (p *Pool) exec(m morsel, id int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("exec: task panicked: %v", v)
		}
	}()
	return m.fn(id)
}

// next blocks until a morsel is available (marking the worker busy) or
// the pool is closed with nothing left to drain.
func (p *Pool) next(id int) (morsel, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if q := p.deques[id]; len(q) > 0 {
			// A dequeued slot is cleared: the backing array outlives the
			// job, and a stale morsel would keep its closure — and the
			// finished join's state — reachable.
			m := q[len(q)-1] // own work: LIFO for locality
			q[len(q)-1] = morsel{}
			p.deques[id] = q[:len(q)-1]
			return p.take(m), true
		}
		for off := 1; off < p.workers; off++ {
			v := (id + off) % p.workers
			if q := p.deques[v]; len(q) > 0 {
				m := q[0] // steal: FIFO from the victim's head
				q[0] = morsel{}
				p.deques[v] = q[1:]
				p.steals.Add(1)
				return p.take(m), true
			}
		}
		if p.closed {
			return morsel{}, false
		}
		p.cond.Wait()
	}
}

// take accounts a dequeued morsel (p.mu held).
func (p *Pool) take(m morsel) morsel {
	p.queued--
	p.busy++
	if p.busy > p.peak {
		p.peak = p.busy
	}
	return m
}

// Stats is a point-in-time snapshot of the pool's counters.
type Stats struct {
	// Workers is the pool size: the bound on concurrently executing
	// morsels, and therefore on the live CPU fan-out of every join
	// sharing the pool.
	Workers int `json:"workers"`
	// Busy is the number of workers executing a morsel right now
	// (occupancy); PeakBusy is its high-water mark, always ≤ Workers.
	Busy     int `json:"busy"`
	PeakBusy int `json:"peakBusy"`
	// Queued is the current depth of the morsel queue across all deques.
	Queued int `json:"queued"`
	// Steals counts morsels a worker took from another worker's deque.
	Steals int64 `json:"steals"`
	// Executed and Skipped count retired morsels (skipped ones belonged
	// to a job already failed or cancelled).
	Executed int64 `json:"executed"`
	Skipped  int64 `json:"skipped"`
	// Jobs counts the jobs (Run calls and Begin jobs) whose tasks the
	// pool accepted.
	Jobs int64 `json:"jobs"`
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	busy, peak, queued := p.busy, p.peak, p.queued
	p.mu.Unlock()
	return Stats{
		Workers:  p.workers,
		Busy:     busy,
		PeakBusy: peak,
		Queued:   queued,
		Steals:   p.steals.Load(),
		Executed: p.executed.Load(),
		Skipped:  p.skipped.Load(),
		Jobs:     p.jobs.Load(),
	}
}
