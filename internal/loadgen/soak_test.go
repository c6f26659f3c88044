package loadgen

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mmjoin/internal/mstore"
	"mmjoin/internal/service"
)

// soakEnv is one live in-process service plus the ground truth of its
// database.
type soakEnv struct {
	srv       *service.Server
	ts        *httptest.Server
	wantPairs int64
	wantSig   string
}

// newSoakEnv builds a small database, records its expected join result,
// and serves it with a deliberately tight admission configuration so
// sustained traffic exercises queueing, 429 backpressure, and grant
// contention — not just the happy path.
func newSoakEnv(t *testing.T, objects int, cfg service.Config) *soakEnv {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	db, err := mstore.CreateDB(dir, 3, objects, objects, 32, 23)
	if err != nil {
		t.Fatal(err)
	}
	want := db.ExpectedStats()
	db.Close() // the server maps it afresh
	cfg.Dir = dir
	cfg.D = 3
	if cfg.CalibrationOps == 0 {
		cfg.CalibrationOps = 60
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &soakEnv{
		srv: srv, ts: ts,
		wantPairs: want.Pairs,
		wantSig:   fmt.Sprintf("%016x", want.Signature),
	}
}

// soakDuration returns the bounded soak length: seconds in short mode,
// minutes-scale in full mode.
func soakDuration() time.Duration {
	if testing.Short() {
		return 2 * time.Second
	}
	return 30 * time.Second
}

// monitor samples /stats periodically and asserts that the
// renegotiation/spill counters only ever grow. Stop it, then read
// Samples for the final state.
type monitor struct {
	srv  *service.Server
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	errs []string
	last map[string]int64
	n    int
}

var monotoneCounters = []string{
	"join_requests_total", "lookups_total",
	"grant_renegotiations_total", "grant_renegotiations_denied_total",
	"spill_restages_total", "stream_probes_total", "temp_relations_total",
}

func startMonitor(srv *service.Server) *monitor {
	m := &monitor{srv: srv, stop: make(chan struct{}), done: make(chan struct{}), last: map[string]int64{}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				st := m.srv.StatsSnapshot()
				m.mu.Lock()
				m.n++
				for _, name := range monotoneCounters {
					if v := st.Counters[name]; v < m.last[name] {
						m.errs = append(m.errs, fmt.Sprintf(
							"counter %s went backwards: %d -> %d", name, m.last[name], v))
					} else {
						m.last[name] = v
					}
				}
				m.mu.Unlock()
			}
		}
	}()
	return m
}

func (m *monitor) finish(t *testing.T) {
	t.Helper()
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.errs {
		t.Error(e)
	}
	if m.n == 0 {
		t.Error("monitor never sampled")
	}
}

// assertQuiesced checks the server has fully settled: empty admission
// queue, zero charged bytes, queue-depth gauge at zero.
func assertQuiesced(t *testing.T, srv *service.Server) {
	t.Helper()
	st := srv.StatsSnapshot()
	if st.Admission.QueueDepth != 0 {
		t.Errorf("admission queue depth %d after load, want 0", st.Admission.QueueDepth)
	}
	if st.Admission.UsedBytes != 0 {
		t.Errorf("charged bytes leaked: used=%d after load", st.Admission.UsedBytes)
	}
	if g := st.Gauges["admission_queue_depth"]; g != 0 {
		t.Errorf("admission_queue_depth gauge %v, want 0", g)
	}
}

// assertJoinsMatchGroundTruth: every 2xx join during the soak returned
// the one correct (pairs, signature) — concurrency and backpressure
// never corrupted a result.
func assertJoinsMatchGroundTruth(t *testing.T, env *soakEnv, res *Result) {
	t.Helper()
	if res.Outcomes["join.ok"] == 0 {
		t.Fatal("soak completed no joins")
	}
	want := fmt.Sprintf("%d/%s", env.wantPairs, env.wantSig)
	for got, n := range res.JoinResults {
		if got != want {
			t.Errorf("%d joins returned %s, want %s", n, got, want)
		}
	}
	var counted int64
	for _, n := range res.JoinResults {
		counted += n
	}
	if counted != res.Outcomes["join.ok"] {
		t.Errorf("spot-checked %d join bodies for %d ok joins", counted, res.Outcomes["join.ok"])
	}
}

// TestSoakSustainedMixedTraffic is the service's endurance invariant
// suite: a closed-loop blend of Zipf lookups and all-algorithm joins
// against a deliberately tight memory budget, run under -race in CI.
// Afterwards the client's outcome counts must reconcile exactly with the
// server's /stats counters, every join must have matched ground truth,
// the renegotiation counters must have grown monotonically, and the
// admission controller must be fully drained back to zero.
func TestSoakSustainedMixedTraffic(t *testing.T) {
	const grant = 256 << 10
	env := newSoakEnv(t, 2500, service.Config{
		MemBudget:    2 * grant, // two concurrent joins, the rest queue
		DefaultGrant: grant,
		MaxQueue:     3,
		Workers:      2,
	})
	mon := startMonitor(env.srv)

	res, err := Run(context.Background(), Config{
		BaseURL:   env.ts.URL + "/v1",
		Seed:      101,
		Mode:      Closed,
		Duration:  soakDuration(),
		Clients:   8,
		ThinkMean: time.Millisecond,
		Mix:       Mix{LookupFraction: 0.5, ZipfS: 1.3},
		// Honor Retry-After but cap the wait so a 30s hint cannot stall
		// the bounded soak.
		MaxRetries: 1,
		RetryCap:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.finish(t)

	if res.OKCount() == 0 {
		t.Fatal("no request succeeded")
	}
	if res.Outcomes["lookup.ok"] == 0 {
		t.Error("no lookups completed")
	}
	assertJoinsMatchGroundTruth(t, env, res)
	if !res.Reconciliation.OK {
		t.Fatalf("client/server counters do not reconcile:\n%v", res.Reconciliation.Problems)
	}
	// The tight budget must actually have been contended — otherwise
	// this soak is not testing backpressure.
	if res.Resp429 == 0 && res.StatsAfter.Admission.Queued == res.StatsBefore.Admission.Queued {
		t.Error("soak never queued nor throttled a request; tighten the budget")
	}
	if res.Retries > 0 && res.Resp429 < res.Retries {
		t.Errorf("retries %d exceed 429 responses %d", res.Retries, res.Resp429)
	}
	assertQuiesced(t, env.srv)
}

// TestSoakDrainMidLoad drains the server while the closed-loop mix is
// still running: Drain must complete without deadlock while traffic is
// in flight, requests after the drain point must answer 503 (and be
// accounted as such on both sides), and the admission queue must end at
// zero.
func TestSoakDrainMidLoad(t *testing.T) {
	const grant = 256 << 10
	env := newSoakEnv(t, 2000, service.Config{
		MemBudget:    2 * grant,
		DefaultGrant: grant,
		MaxQueue:     4,
		Workers:      2,
	})
	dur := soakDuration()

	drained := make(chan error, 1)
	timer := time.AfterFunc(dur/2, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- env.srv.Drain(ctx)
	})
	defer timer.Stop()

	res, err := Run(context.Background(), Config{
		BaseURL:   env.ts.URL + "/v1",
		Seed:      202,
		Mode:      Closed,
		Duration:  dur,
		Clients:   6,
		ThinkMean: time.Millisecond,
		Mix:       Mix{LookupFraction: 0.4, ZipfS: 1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case derr := <-drained:
		if derr != nil {
			t.Fatalf("drain under load: %v", derr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain deadlocked under load")
	}

	if res.OKCount() == 0 {
		t.Fatal("nothing succeeded before the drain")
	}
	unavailable := res.Outcomes["join.unavailable"] + res.Outcomes["lookup.unavailable"]
	if unavailable == 0 {
		t.Error("no 503s observed after drain — half the run should have been rejected")
	}
	assertJoinsMatchGroundTruth(t, env, res)
	if !res.Reconciliation.OK {
		t.Fatalf("client/server counters do not reconcile across a mid-load drain:\n%v",
			res.Reconciliation.Problems)
	}
	if !res.StatsAfter.Draining {
		t.Error("server not draining in the after-snapshot")
	}
	assertQuiesced(t, env.srv)
}
