package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

func TestRunExecutesEveryTask(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	tasks := make([]Task, 100)
	for i := range tasks {
		tasks[i] = func(int) error { n.Add(1); return nil }
	}
	if err := p.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("executed %d of 100 tasks", n.Load())
	}
	st := p.Stats()
	if st.Executed != 100 || st.Jobs != 1 || st.Queued != 0 || st.Busy != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRunRangesCoversExactly: a job of contiguous ranges over [0, n)
// runs every range once, on a valid worker id, so each object is
// covered exactly once.
func TestRunRangesCoversExactly(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	seen := make([]atomic.Int32, 1000)
	var tasks []Task
	for lo := 0; lo < len(seen); lo += 64 {
		lo, hi := lo, min(lo+64, len(seen))
		tasks = append(tasks, func(w int) error {
			if w < 0 || w >= 3 {
				return fmt.Errorf("worker id %d out of range", w)
			}
			for x := lo; x < hi; x++ {
				seen[x].Add(1)
			}
			return nil
		})
	}
	if err := p.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	for x := range seen {
		if seen[x].Load() != 1 {
			t.Fatalf("object %d covered %d times", x, seen[x].Load())
		}
	}
}

// repeat returns n copies of fn as tasks.
func repeat(n int, fn Task) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = fn
	}
	return tasks
}

func TestWorkerIDsIndexPerWorkerState(t *testing.T) {
	// The contract callers rely on for unsynchronized per-worker
	// accumulators: at most one task runs per worker id at any time.
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	var inUse [workers]atomic.Bool
	err := p.Run(context.Background(), repeat(200, func(w int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker id %d out of range", w)
		}
		if !inUse[w].CompareAndSwap(false, true) {
			return fmt.Errorf("worker %d entered twice", w)
		}
		time.Sleep(10 * time.Microsecond)
		inUse[w].Store(false)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunReturnsFirstErrorAndSkipsRest(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	boom := errors.New("boom")
	var after atomic.Int64
	var tasks []Task
	for i := 0; i < 500; i++ {
		tasks = append(tasks, func(int) error { after.Add(1); return nil })
	}
	// Failing task last: a job's newest task runs first.
	tasks = append(tasks, func(int) error { return boom })
	if err := p.Run(context.Background(), tasks); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Some tasks may have raced ahead of the failure, but the bulk of the
	// job must have been skipped.
	if p.Stats().Skipped == 0 {
		t.Fatalf("no tasks skipped after failure (ran %d)", after.Load())
	}
}

func TestRunPanicFailsJobNotPool(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	err := p.Run(context.Background(), []Task{func(int) error { panic("kaboom") }})
	if err == nil || err.Error() != "exec: task panicked: kaboom" {
		t.Fatalf("err = %v", err)
	}
	// The pool survives and keeps executing.
	if err := p.Run(context.Background(), []Task{func(int) error { return nil }}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCancellationSkipsQueuedButWaitsForInflight(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var inflightDone, ran atomic.Bool
	var tasks []Task
	for i := 0; i < 50; i++ {
		tasks = append(tasks, func(int) error { ran.Store(true); return nil })
	}
	// A job's newest task runs first, so the last-submitted task runs
	// first on a 1-worker pool; the rest stay queued behind it.
	tasks = append(tasks, func(int) error {
		close(started)
		<-release
		inflightDone.Store(true)
		return nil
	})
	errc := make(chan error, 1)
	go func() { errc <- p.Run(ctx, tasks) }()
	<-started
	cancel()
	// Run must not return while the first task still executes.
	select {
	case err := <-errc:
		t.Fatalf("Run returned %v with a task in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if !inflightDone.Load() {
		t.Fatal("Run returned before the in-flight task finished")
	}
	if ran.Load() {
		t.Error("queued task of a cancelled job was executed")
	}
}

// TestJobCancelledBeforeWaitFails: a job whose context ended before its
// morsels ran fails with the context's error even when every morsel was
// skipped before Wait — a skipped morsel is never a success.
func TestJobCancelledBeforeWaitFails(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		jb := p.Begin(ctx)
		if err := jb.Add(repeat(8, func(int) error { return nil })...); err != nil {
			t.Fatal(err)
		}
		for p.Stats().Queued > 0 || p.Stats().Busy > 0 {
			runtime.Gosched()
		}
		if err := jb.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: Wait = %v with every morsel skipped", i, err)
		}
	}
}

// TestBothWorkersTakeOneJob: the workers of a 2-worker pool share one
// job's tasks — each of its two tasks waits until the other has begun.
func TestBothWorkersTakeOneJob(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var arrived sync.WaitGroup
	arrived.Add(2)
	both := make(chan struct{})
	go func() { arrived.Wait(); close(both) }()
	var ids [2]atomic.Int32
	err := p.Run(context.Background(), repeat(2, func(w int) error {
		ids[w].Add(1)
		arrived.Done()
		select {
		case <-both:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the other task never began")
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ids[0].Load() != 1 || ids[1].Load() != 1 {
		t.Fatalf("tasks per worker %d, %d; want 1, 1", ids[0].Load(), ids[1].Load())
	}
}

// TestOlderJobRunsFirst: a job that begins while an older one still has
// queued tasks waits for them, even for a task the older job adds after
// the newer job queued its own.
func TestOlderJobRunsFirst(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx := context.Background()
	var log []string // appended by the one worker only
	logs := func(name string) Task {
		return func(int) error { log = append(log, name); return nil }
	}
	started, newerQueued := make(chan struct{}), make(chan struct{})
	var first sync.Once
	older := p.Begin(ctx)
	blockFirst := func(w int) error {
		logs("older")(w)
		first.Do(func() {
			close(started)
			<-newerQueued
			_ = older.Add(logs("older")) // a failed Add fails the job; Wait reports it
		})
		return nil
	}
	if err := older.Add(repeat(3, blockFirst)...); err != nil {
		t.Fatal(err)
	}
	<-started
	newer := p.Begin(ctx)
	if err := newer.Add(repeat(3, logs("newer"))...); err != nil {
		t.Fatal(err)
	}
	close(newerQueued)
	if err := older.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := newer.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []string{"older", "older", "older", "older", "newer", "newer", "newer"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
}

func TestConcurrentJobsShareTheBound(t *testing.T) {
	const workers = 2
	p := NewPool(workers)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Run(context.Background(), repeat(29, func(int) error {
				time.Sleep(5 * time.Microsecond)
				return nil
			}))
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.PeakBusy > workers {
		t.Fatalf("peak occupancy %d exceeds pool size %d", st.PeakBusy, workers)
	}
	if st.Jobs != 8 {
		t.Fatalf("jobs = %d", st.Jobs)
	}
}

func TestRunAfterCloseFails(t *testing.T) {
	p := NewPool(1)
	p.Close()
	if err := p.Run(context.Background(), []Task{func(int) error { return nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if jobs := p.Stats().Jobs; jobs != 0 {
		t.Fatalf("a job refused by the closed pool counted: Jobs = %d", jobs)
	}
}

func TestCloseDrainsQueuedWork(t *testing.T) {
	p := NewPool(1)
	var n atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- p.Run(context.Background(), repeat(500, func(int) error {
			n.Add(1)
			return nil
		}))
	}()
	// Close concurrently with the running job: workers must drain it.
	time.Sleep(time.Millisecond)
	p.Close()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if n.Load() != 500 {
		t.Fatalf("drained %d of 500", n.Load())
	}
}

func TestJobAddFromInsideTask(t *testing.T) {
	// The pipelining contract: a task may enqueue follow-on tasks onto
	// its own job, and Wait observes all of them. Three generations deep.
	p := NewPool(3)
	defer p.Close()
	var n atomic.Int64
	jb := p.Begin(context.Background())
	var spawn func(depth int) Task
	spawn = func(depth int) Task {
		return func(int) error {
			n.Add(1)
			if depth < 2 {
				for i := 0; i < 4; i++ {
					if err := jb.Add(spawn(depth + 1)); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	if err := jb.Add(spawn(0), spawn(0)); err != nil {
		t.Fatal(err)
	}
	if err := jb.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * (1 + 4 + 16)); n.Load() != want {
		t.Fatalf("executed %d tasks, want %d", n.Load(), want)
	}
}

func TestJobEmptyWaitReturnsImmediately(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if err := p.Begin(context.Background()).Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestJobErrorSkipsLaterAdds(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	boom := errors.New("boom")
	var after atomic.Int64
	jb := p.Begin(context.Background())
	// One batch, failing task last: a job's newest task runs first, so
	// the failure lands before the bulk of the queued tasks.
	tasks := make([]Task, 0, 101)
	for i := 0; i < 100; i++ {
		tasks = append(tasks, func(int) error { after.Add(1); return nil })
	}
	tasks = append(tasks, func(int) error { return boom })
	if err := jb.Add(tasks...); err != nil {
		t.Fatal(err)
	}
	if err := jb.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if p.Stats().Skipped == 0 {
		t.Fatalf("no tasks skipped after failure (ran %d)", after.Load())
	}
}

func TestJobAddAfterCloseFails(t *testing.T) {
	p := NewPool(1)
	jb := p.Begin(context.Background())
	p.Close()
	if err := jb.Add(func(int) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add err = %v", err)
	}
	if err := jb.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait err = %v", err)
	}
}

func TestNewPoolDefaultsToGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("workers = %d", p.Workers())
	}
}

// TestPoolRetainsNoFinishedTasks checks a long-lived pool lets go of a
// job once Run returns: the state its tasks captured is collectable,
// whichever worker took them.
func TestPoolRetainsNoFinishedTasks(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	held := runCapturing(t, p)
	for i := 0; i < 3 && held.Value() != nil; i++ {
		runtime.GC()
	}
	if held.Value() != nil {
		t.Fatal("a finished job's task state is still reachable from the pool")
	}
}

// runCapturing runs 64 tasks that write into one buffer and returns a
// weak pointer to it; once it returns, only the pool could hold it.
func runCapturing(t *testing.T, p *Pool) weak.Pointer[[64 << 10]byte] {
	buf := new([64 << 10]byte)
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = func(w int) error { buf[i] = byte(w); return nil }
	}
	if err := p.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	return weak.Make(buf)
}
