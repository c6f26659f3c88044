package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestRetryAfterHintGrowsWithQueueDepth: the 429 hint is queue depth ×
// mean admitted-service time, not a constant — a deeper queue must
// produce a larger hint, clamped to [1s, 30s].
func TestRetryAfterHintGrowsWithQueueDepth(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	s.meanServiceNs.Store(int64(2 * time.Second))

	cases := []struct {
		depth int
		want  time.Duration
	}{
		{0, time.Second},        // empty queue: the 1s floor
		{1, 2 * time.Second},    // one slot-recycle ahead
		{5, 10 * time.Second},   // linear in depth
		{100, 30 * time.Second}, // capped
	}
	for _, c := range cases {
		if got := s.hintFor(c.depth); got != c.want {
			t.Errorf("hintFor(%d) = %v, want %v", c.depth, got, c.want)
		}
	}

	prev := time.Duration(0)
	for depth := 0; depth <= 20; depth++ {
		h := s.hintFor(depth)
		if h < prev {
			t.Fatalf("hint shrank with queue depth: hintFor(%d)=%v < %v", depth, h, prev)
		}
		prev = h
	}

	// The floor is one second whatever the mean: a fast service still
	// never hints below what the whole-seconds header can carry.
	s.meanServiceNs.Store(int64(50 * time.Millisecond))
	if got := s.hintFor(3); got != time.Second {
		t.Errorf("hintFor(3) at a 50ms mean = %v, want the 1s floor", got)
	}
	if got := s.hintFor(40); got != 2*time.Second {
		t.Errorf("hintFor(40) at a 50ms mean = %v, want 2s (above the floor)", got)
	}
}

// TestRetryAfterEWMASeedsAndConverges: the first sample seeds the mean;
// later samples move it by 1/8 of the error.
func TestRetryAfterEWMASeedsAndConverges(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	if got := s.meanServiceNs.Load(); got != 0 {
		t.Fatalf("mean before any join = %d", got)
	}
	s.recordServiceTime(800 * time.Millisecond)
	if got := s.meanServiceNs.Load(); got != int64(800*time.Millisecond) {
		t.Fatalf("first sample must seed the EWMA: got %d", got)
	}
	s.recordServiceTime(1600 * time.Millisecond)
	want := int64(800*time.Millisecond) + int64(800*time.Millisecond)/8
	if got := s.meanServiceNs.Load(); got != want {
		t.Fatalf("EWMA after second sample = %d, want %d", got, want)
	}
}

// TestRetryAfterHeaderReflectsQueueDepth: end to end, a saturated 429
// carries a Retry-After derived from the live queue depth — with the
// queue full and a known mean service time, the header is depth × mean.
func TestRetryAfterHeaderReflectsQueueDepth(t *testing.T) {
	const budget = 1 << 20
	const maxQueue = 4
	s := newTestServer(t, 300, Config{MemBudget: budget, MaxQueue: maxQueue})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.meanServiceNs.Store(int64(3 * time.Second))

	// Occupy the whole budget, then fill the queue with waiters.
	if err := s.adm.Acquire(context.Background(), budget); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < maxQueue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.adm.Acquire(ctx, budget) // queued until cancel
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.QueueDepth() < maxQueue {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := postJoin(t, ts, JoinRequest{MemBytes: budget})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	sec, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("bad Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	if want := maxQueue * 3; sec != want {
		t.Errorf("Retry-After = %ds at depth %d × mean 3s, want %ds", sec, maxQueue, want)
	}

	cancel()
	wg.Wait()
	s.adm.Release(budget)
}
