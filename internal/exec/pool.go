// Package exec is the morsel-driven execution layer of the mapped
// store: a pool of a fixed number of goroutines onto which joins (and
// any other bulk operation) submit fine-grained tasks — "morsels",
// fixed-size object ranges in the style of Leis et al.'s morsel-driven
// parallelism and of Albutiu et al.'s MPSM join.
//
// The pool decouples CPU parallelism from data layout: the paper's
// structural parallelism runs one process per disk partition (D of
// them), which underuses a host with more cores than partitions and
// oversubscribes one running several joins at once. Here every join
// decomposes into many morsels pulled by Workers goroutines (default
// GOMAXPROCS), and one pool can be shared by all in-flight joins of a
// server so the total CPU fan-out stays bounded by the host.
//
// Each job keeps one stack of queued tasks, and a worker takes the
// newest task of the oldest job that has any: a join that begins while
// another runs waits for the older one's queued morsels instead of
// taking its workers, and within a job a task added by a running task
// runs next (depth first).
//
// Scheduling is deterministic-result by construction, not
// deterministic-order: callers must make morsel results order
// independent (the store's JoinStats are commutative sums, so they are
// bit-identical at any worker count).
package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Run after Close.
var ErrClosed = errors.New("exec: pool is closed")

// Task is one morsel of work. The worker argument identifies the
// executing pool goroutine (0 ≤ worker < Workers()); callers use it to
// index per-worker accumulators without synchronization.
type Task func(worker int) error

// Pool is a fixed number of worker goroutines serving jobs oldest
// first. Many Run calls may be in flight at once — they share the same
// workers, which is exactly how a server bounds total CPU fan-out
// across concurrent joins.
type Pool struct {
	workers int

	mu     sync.Mutex // guards open, queued, busy, peak, closed, every Job's tasks and accepted, and the cond
	cond   *sync.Cond
	open   []*Job // jobs with queued tasks, oldest (lowest seq) first
	queued int
	busy   int
	peak   int
	closed bool

	seq      atomic.Uint64
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
	p := &Pool{workers: workers}
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
	p   *Pool
	ctx context.Context
	seq uint64 // Begin order: a lower seq is served first

	tasks    []Task // queued tasks, newest last (p.mu)
	accepted bool   // the pool has queued one of the job's tasks (p.mu)

	pending atomic.Int64 // unretired tasks, plus Wait's open token
	done    chan struct{}
	failed  atomic.Bool
	waited  atomic.Bool
	mu      sync.Mutex // guards err
	err     error
}

// Begin opens a job with no tasks yet. The caller must eventually call
// Wait exactly once; Add may be called any number of times before the
// final task retires (in particular, from inside the job's own tasks).
func (p *Pool) Begin(ctx context.Context) *Job {
	jb := &Job{p: p, ctx: ctx, seq: p.seq.Add(1), done: make(chan struct{})}
	// One "open" token keeps the job alive until Wait retires it, so an
	// empty or still-filling job never closes done early.
	jb.pending.Store(1)
	return jb
}

// Add enqueues more tasks onto the job. Safe to call from inside one of
// the job's tasks: the calling task has not retired, so the job cannot
// complete concurrently. Add after the pool closed fails the job and
// returns ErrClosed.
func (jb *Job) Add(tasks ...Task) error {
	if len(tasks) == 0 {
		return nil
	}
	jb.pending.Add(int64(len(tasks)))
	p := jb.p
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		jb.fail(ErrClosed)
		for range tasks {
			jb.retire()
		}
		return ErrClosed
	}
	if !jb.accepted {
		jb.accepted = true
		p.jobs.Add(1)
	}
	if len(jb.tasks) == 0 {
		// A job without queued tasks (re)enters open in Begin order.
		i, _ := slices.BinarySearchFunc(p.open, jb.seq, func(o *Job, seq uint64) int { return cmp.Compare(o.seq, seq) })
		p.open = slices.Insert(p.open, i, jb)
	}
	jb.tasks = append(jb.tasks, tasks...)
	p.queued += len(tasks)
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
	jb.retire()
	select {
	case <-jb.done:
	case <-jb.ctx.Done():
		jb.fail(jb.ctx.Err())
		<-jb.done
	}
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.err
}

// fail records the job's first error and marks it failed so queued
// morsels are skipped instead of executed.
func (jb *Job) fail(err error) {
	jb.mu.Lock()
	if jb.err == nil {
		jb.err = err
	}
	jb.mu.Unlock()
	jb.failed.Store(true)
}

// retire accounts one morsel as finished (executed or skipped).
func (jb *Job) retire() {
	if jb.pending.Add(-1) == 0 {
		close(jb.done)
	}
}

// worker is one pool goroutine: take the next morsel or sleep.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		jb, fn, ok := p.next()
		if !ok {
			return
		}
		if jb.failed.Load() {
			p.skipped.Add(1)
		} else if err := jb.ctx.Err(); err != nil {
			// A skipped morsel leaves the job incomplete: it fails with
			// the context's error, however Wait wakes.
			jb.fail(err)
			p.skipped.Add(1)
		} else {
			if err := p.exec(fn, id); err != nil {
				jb.fail(err)
			}
			p.executed.Add(1)
		}
		p.mu.Lock()
		p.busy--
		p.mu.Unlock()
		jb.retire()
	}
}

// exec runs one morsel, converting a panic into an error so a bad task
// fails its own job instead of killing the shared pool (and with it the
// whole server).
func (p *Pool) exec(fn Task, id int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("exec: task panicked: %v", v)
		}
	}()
	return fn(id)
}

// next blocks until a morsel is available — the newest task of the
// oldest open job — and marks the worker busy, or reports false once
// the pool is closed with nothing left to drain.
func (p *Pool) next() (*Job, Task, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.open) == 0 {
		if p.closed {
			return nil, nil, false
		}
		p.cond.Wait()
	}
	jb := p.open[0]
	n := len(jb.tasks) - 1
	fn := jb.tasks[n]
	// A dequeued slot is cleared, and so is a drained job's place in
	// open: a stale entry would keep the closure — and the finished
	// join's state — reachable.
	jb.tasks[n] = nil
	jb.tasks = jb.tasks[:n]
	if n == 0 {
		p.open = slices.Delete(p.open, 0, 1)
	}
	p.queued--
	p.busy++
	p.peak = max(p.peak, p.busy)
	return jb, fn, true
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
	// Queued is the number of morsels queued across all jobs.
	Queued int `json:"queued"`
	// Steals is always 0: no worker owns a queue to steal from. It
	// stays only because the benchmark harness (benchmark/lib.go,
	// benchmark/serve.go) still reads it.
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
		Executed: p.executed.Load(),
		Skipped:  p.skipped.Load(),
		Jobs:     p.jobs.Load(),
	}
}
