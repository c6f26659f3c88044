package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmjoin/internal/mstore"
)

// newTestServer creates a small database and a server over it. The
// caller's cfg may pre-set budget/queue/grant knobs; Store is filled in
// here.
func newTestServer(t *testing.T, objects int, cfg Config) *Server {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	db, err := mstore.CreateDB(dir, 3, objects, objects, 32, 11)
	if err != nil {
		t.Fatal(err)
	}
	db.Close() // the server maps it afresh
	return serveDir(t, dir, cfg)
}

// serveDir opens the 3-partition database at dir and serves it.
func serveDir(tb testing.TB, dir string, cfg Config) *Server {
	tb.Helper()
	db, err := mstore.OpenDB(dir, 3)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Store = db
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// expectedStats reopens the server's database for ground truth (the
// server itself exposes only the Store interface).
func expectedStats(t *testing.T, s *Server) mstore.JoinStats {
	t.Helper()
	db, err := mstore.OpenDB(s.store.Stats().Dir, s.d)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	return db.ExpectedStats()
}

func postJoin(t *testing.T, ts *httptest.Server, req JoinRequest) (*http.Response, JoinResponse) {
	t.Helper()
	resp, jr, err := doJoin(ts, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, jr
}

// doJoin is postJoin for goroutines other than the test's own, which may
// not call t.Fatal.
func doJoin(ts *httptest.Server, req JoinRequest) (*http.Response, JoinResponse, error) {
	var jr JoinResponse
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, jr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&jr)
	}
	return resp, jr, err
}

func TestServeJoinAuto(t *testing.T) {
	s := newTestServer(t, 1500, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := expectedStats(t, s)
	resp, jr := postJoin(t, ts, JoinRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if jr.Pairs != want.Pairs || jr.Signature != fmt.Sprintf("%016x", want.Signature) {
		t.Fatalf("result %+v, want %+v", jr, want)
	}
	if len(jr.Plan) == 0 || jr.Plan[0].Algorithm != jr.Algorithm {
		t.Fatalf("auto mode must return the plan, cheapest first: %+v", jr.Plan)
	}
	if jr.PredictedNs <= 0 {
		t.Fatalf("missing prediction: %+v", jr)
	}
}

func TestServeJoinEachAlgorithm(t *testing.T) {
	s := newTestServer(t, 1200, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := expectedStats(t, s)
	for _, alg := range []string{"nested-loops", "sort-merge", "grace", "hybrid-hash"} {
		resp, jr := postJoin(t, ts, JoinRequest{Algorithm: alg, MemBytes: 256 << 10})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", alg, resp.StatusCode)
		}
		if jr.Algorithm != alg {
			t.Fatalf("%s: executed %s", alg, jr.Algorithm)
		}
		if jr.Pairs != want.Pairs || jr.Signature != fmt.Sprintf("%016x", want.Signature) {
			t.Fatalf("%s: result %+v, want %+v", alg, jr, want)
		}
	}
}

// TestParseAlgorithmNamesEveryOperator: every operator a store may run
// parses from its own name, and no other name parses: not auto, which
// the handler takes before parsing, not the simulator's analytical
// baseline, and not an unknown or miscased one, which answer 400.
func TestParseAlgorithmNamesEveryOperator(t *testing.T) {
	for _, op := range mstore.Operators(true) {
		if got, ok := parseAlgorithm(op.String()); !ok || got != op {
			t.Errorf("%q parses to %v (%v), want itself", op.String(), got, ok)
		}
	}
	for _, name := range []string{"auto", "traditional-grace", "Grace", "hash", ""} {
		if got, ok := parseAlgorithm(name); ok {
			t.Errorf("%q parses to %v", name, got)
		}
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJoin(t, ts, JoinRequest{Algorithm: "traditional-grace"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d", resp.StatusCode)
	}
	// A grant above the whole budget can never be admitted.
	resp, _ = postJoin(t, ts, JoinRequest{MemBytes: s.cfg.MemBudget + 1})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized grant: status %d", resp.StatusCode)
	}
	// A wire K outside [0, |R|] is a client error.
	resp, _ = postJoin(t, ts, JoinRequest{Algorithm: "grace", K: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative k: status %d", resp.StatusCode)
	}
	resp, _ = postJoin(t, ts, JoinRequest{Algorithm: "grace", K: s.store.Stats().NR + 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("absurd k: status %d", resp.StatusCode)
	}
}

// TestServeSaturationBackpressure fills the budget, shows a queue-less
// server answering 429 with Retry-After, then shows a queued request
// waiting out the congestion and succeeding.
func TestServeSaturationBackpressure(t *testing.T) {
	const budget = 1 << 20
	s := newTestServer(t, 300, Config{MemBudget: budget, MaxQueue: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.adm.Acquire(context.Background(), budget); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJoin(t, ts, JoinRequest{MemBytes: budget})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	s.adm.Release(budget)
	resp, jr := postJoin(t, ts, JoinRequest{MemBytes: budget})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d", resp.StatusCode)
	}
	if jr.Pairs != expectedStats(t, s).Pairs {
		t.Fatalf("wrong result after congestion: %+v", jr)
	}
}

func TestServeQueuedRequestWaits(t *testing.T) {
	const budget = 1 << 20
	s := newTestServer(t, 300, Config{MemBudget: budget})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.adm.Acquire(context.Background(), budget); err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		jr   JoinResponse
	}
	done := make(chan result, 1)
	go func() {
		resp, jr := postJoin(t, ts, JoinRequest{MemBytes: budget})
		done <- result{resp.StatusCode, jr}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	s.adm.Release(budget)
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("queued request: status %d", r.code)
	}
	if r.jr.QueueWaitNs <= 0 {
		t.Fatalf("queued request reports no wait: %+v", r.jr)
	}
}

// TestServeCancellationMidJoin deadlines a request while its join is
// executing: the join stops at its next morsel, the handler answers
// 503, and the grant — charged while the join ran — is back before the
// answer is.
func TestServeCancellationMidJoin(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	var charged atomic.Int64
	s.preJoin = func(ctx context.Context) {
		charged.Store(s.adm.Stats().UsedBytes)
		<-ctx.Done()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postJoin(t, ts, JoinRequest{TimeoutMs: 150}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("abandoned request: status %d, want 503", resp.StatusCode)
	}
	if charged.Load() == 0 {
		t.Fatal("no grant charged while the join ran")
	}
	if st := s.adm.Stats(); st.UsedBytes != 0 {
		t.Fatalf("abandoned join kept its grant past the answer: %+v", st)
	}
	if got := s.StatsSnapshot().Counters["join_abandoned"]; got != 1 {
		t.Fatalf("join_abandoned = %d", got)
	}
}

// panicStore is a store whose joins panic.
type panicStore struct{ *mstore.DB }

func (panicStore) Run(mstore.JoinRequest) (mstore.JoinStats, error) { panic("store fault") }

// TestServeJoinPanicReturnsGrant: a join that panics in the store
// unwinds through its handler to the panic isolation, which answers
// 500 internal and counts it; the grant goes back on the way and Drain
// does not wait on the request.
func TestServeJoinPanicReturnsGrant(t *testing.T) {
	db, err := mstore.CreateDB(filepath.Join(t.TempDir(), "db"), 3, 300, 300, 32, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: panicStore{db}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/join", "application/json", strings.NewReader(`{"algorithm":"grace"}`))
	if err != nil {
		t.Fatal(err)
	}
	var env ErrorEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "internal" {
		t.Fatalf("panicking join: status %d, body %+v (%v), want 500 internal", resp.StatusCode, env, err)
	}
	if st := s.adm.Stats(); st.UsedBytes != 0 {
		t.Fatalf("panicking join kept its grant: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	c := s.StatsSnapshot().Counters
	if c["panics_recovered"] != 1 || c["errors_internal"] != 0 {
		t.Fatalf("panics_recovered = %d, errors_internal = %d, want 1 and 0", c["panics_recovered"], c["errors_internal"])
	}
}

// TestServeGracefulDrain verifies drain semantics: in-flight joins
// complete, new ones are refused, healthz flips to 503.
func TestServeGracefulDrain(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	block := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.preJoin = func(context.Context) {
		once.Do(func() { close(entered) })
		<-block
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := make(chan result2, 1)
	go func() {
		resp, jr := postJoin(t, ts, JoinRequest{})
		inflight <- result2{resp.StatusCode, jr}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitDraining(t, s)

	if resp, err := ts.Client().Get(ts.URL + "/v1/healthz"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	if resp, _ := postJoin(t, ts, JoinRequest{}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("join while draining: %d", resp.StatusCode)
	}
	// Lookups read the mapping too, so drain refuses them as well.
	if resp, err := ts.Client().Get(ts.URL + "/v1/lookup?part=0&index=0"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lookup while draining: %d", resp.StatusCode)
	}

	close(block) // let the in-flight join finish
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	r := <-inflight
	if r.code != http.StatusOK || r.jr.Pairs != expectedStats(t, s).Pairs {
		t.Fatalf("in-flight join during drain: %+v", r)
	}
}

// TestServeDrainWaitsForAdmissionQueuedJoin pins the drain/inflight
// ordering: a request still waiting in the admission queue has not yet
// started its join, but it registered with the drain waiter on
// arrival, so Drain must not return — and the caller must not unmap the
// database — until that request has run to completion.
func TestServeDrainWaitsForAdmissionQueuedJoin(t *testing.T) {
	const budget = 1 << 20
	s := newTestServer(t, 300, Config{MemBudget: budget})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.adm.Acquire(context.Background(), budget); err != nil {
		t.Fatal(err)
	}
	queued := make(chan result2, 1)
	go func() {
		resp, jr := postJoin(t, ts, JoinRequest{MemBytes: budget})
		queued <- result2{resp.StatusCode, jr}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitDraining(t, s)
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (err=%v) while a request sat in the admission queue", err)
	case <-time.After(50 * time.Millisecond):
	}

	s.adm.Release(budget) // un-gate the queued join
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	r := <-queued
	if r.code != http.StatusOK || r.jr.Pairs != expectedStats(t, s).Pairs {
		t.Fatalf("queued join during drain: %+v", r)
	}
}

type result2 struct {
	code int
	jr   JoinResponse
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !s.gate.Closing() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeLookup(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want, err := s.store.Lookup(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/lookup?part=1&index=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lr LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.RID != want.RID || lr.SPart != want.SPart || lr.SIndex != want.SIndex || lr.SWord != want.SWord {
		t.Fatalf("lookup %+v, want %+v", lr, want)
	}
	for _, bad := range []string{"/v1/lookup?part=9&index=0", "/v1/lookup?part=0&index=999999", "/v1/lookup"} {
		resp, err := ts.Client().Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: accepted", bad)
		}
	}
}

// TestServeLookupDanglingPointer: a row whose stored pointer no S object
// holds is the store's fault, not the client's — 500 internal, counted
// under lookups_failed — and neither names a made-up S object nor panics.
// The pointers are rewritten under the live server: New's plan pass
// already refuses a store that holds one.
func TestServeLookupDanglingPointer(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	db := s.store.(*mstore.DB)
	s1 := db.S[1]
	db.R[0].SetJoinAttr(4, mstore.SPtr{Part: 1, Off: s1.PtrAt(s1.Count())}) // past the last object
	db.R[0].SetJoinAttr(5, mstore.SPtr{Part: 1, Off: 8})                    // in the segment header
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, index := range []int{4, 5} {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/lookup?part=0&index=%d", ts.URL, index))
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusInternalServerError || env.Error.Code != "internal" {
			t.Errorf("R0[%d]: status %d, %+v, %v; want 500 internal", index, resp.StatusCode, env, err)
		}
	}
	c := s.StatsSnapshot().Counters
	if c["lookups_failed"] != 2 || c["panics_recovered"] != 0 {
		t.Errorf("lookups_failed = %d, panics_recovered = %d, want 2 and 0", c["lookups_failed"], c["panics_recovered"])
	}
}

func TestServeStats(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postJoin(t, ts, JoinRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Counters["join_requests_total"] < 1 {
		t.Fatalf("counters %+v", st.Counters)
	}
	if st.Admission.BudgetBytes != s.cfg.MemBudget || st.Admission.Admitted < 1 {
		t.Fatalf("admission %+v", st.Admission)
	}
	if st.DB.NR != s.store.Stats().NR || st.DB.D != 3 {
		t.Fatalf("db %+v", st.DB)
	}
	found := false
	for name, h := range st.Histograms {
		if len(name) > 12 && name[:12] == "join_latency" && h.Count >= 1 && h.MaxNs > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no join latency histogram: %+v", st.Histograms)
	}
	if h := st.Gauges["retry_after_hint_sec"]; h < 1 {
		t.Fatalf("gauges %+v: retry_after_hint_sec below the 1 s floor", st.Gauges)
	}
}

// TestOversizedBodyIsBadRequest: a request body past maxBodyBytes
// answers 400 bad_request however it would parse — 2 MiB of spaces
// before "{}" is a valid join request — and a join's counts in
// bad_requests, so the client's ledger reconciles with /v1/stats.
func TestOversizedBodyIsBadRequest(t *testing.T) {
	body := strings.Repeat(" ", 2<<20) + "{}"
	s := newTestServer(t, 300, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	seen := tally{answers: map[answer]int64{}, bodies: map[joinBody]int64{}}
	before := s.StatsSnapshot()
	resp, err := ts.Client().Post(ts.URL+"/v1/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
		t.Fatalf("oversized join: status %d code %q", resp.StatusCode, e.Code)
	}
	seen.record(answer{join: true, status: resp.StatusCode}, nil)
	reconcile(t, before, s.StatsSnapshot(), &seen)

	// A shard add that would otherwise reach AddShard (and fail 409).
	add := strings.Repeat(" ", 2<<20) + `{"id":"x","dir":"/nope","d":1}`
	_, sts, _, _ := newShardedServer(t, 300, Config{})
	resp, err = sts.Client().Post(sts.URL+"/v1/shards", "application/json", strings.NewReader(add))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
		t.Fatalf("oversized shard add: status %d code %q", resp.StatusCode, e.Code)
	}
}

// TestServeConcurrentClientsRace is the -race stress test: many clients
// issuing planner-chosen and explicit joins concurrently, every result
// checked against the store's ground truth, and the memory budget
// provably never exceeded.
func TestServeConcurrentClientsRace(t *testing.T) {
	const grant = 128 << 10
	// Workers: 2 saturates the shared morsel pool: 16 clients push joins
	// at a pool that executes at most 2 morsels at once, so the test
	// exercises many jobs interleaving on the same workers.
	s := newTestServer(t, 1000, Config{MemBudget: 3 * grant, DefaultGrant: grant, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := expectedStats(t, s)
	wantSig := fmt.Sprintf("%016x", want.Signature)
	algs := []string{"", "nested-loops", "sort-merge", "grace", "hybrid-hash"}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, jr := postJoin(t, ts, JoinRequest{
					Algorithm: algs[(g+i)%len(algs)],
					MemBytes:  grant,
				})
				switch resp.StatusCode {
				case http.StatusOK:
					if jr.Pairs != want.Pairs || jr.Signature != wantSig {
						errs <- fmt.Errorf("client %d: result %+v, want %+v", g, jr, want)
						return
					}
				case http.StatusTooManyRequests:
					// Backpressure is an acceptable answer under saturation.
				default:
					errs <- fmt.Errorf("client %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.adm.Stats()
	if st.PeakUsedBytes > 3*grant {
		t.Fatalf("memory budget exceeded under load: peak %d > %d", st.PeakUsedBytes, 3*grant)
	}
	if st.UsedBytes != 0 {
		t.Fatalf("grants leaked: %+v", st)
	}
	if st.Queued == 0 {
		t.Log("note: no request ever queued (budget admits 3 concurrent joins)")
	}
	// However many joins were in flight, live join execution stayed
	// bounded by the shared pool, not by the request count.
	pool := s.pool.Stats()
	if pool.Workers != 2 {
		t.Fatalf("pool workers = %d, want 2", pool.Workers)
	}
	if pool.PeakBusy > pool.Workers {
		t.Fatalf("peak pool occupancy %d exceeds pool size %d", pool.PeakBusy, pool.Workers)
	}
	if pool.Executed == 0 || pool.Jobs == 0 {
		t.Fatalf("pool never used: %+v", pool)
	}
	snap := s.StatsSnapshot()
	if snap.Pool.Workers != 2 {
		t.Fatalf("/stats pool %+v", snap.Pool)
	}
	if snap.Pool.Executed < pool.Executed || snap.Pool.Jobs < pool.Jobs {
		t.Fatalf("/stats pool %+v behind the pool's own %+v", snap.Pool, pool)
	}
}

// TestStatsRegisterEveryOperatorCounter: a fresh server's /v1/stats
// names a join_executed_* counter at 0 for auto and each of the six
// operators a request may name, before any join, so reconciliation finds
// every key on both of its snapshots.
func TestStatsRegisterEveryOperatorCounter(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	names := []string{"auto", "nested-loops", "sort-merge", "grace", "hybrid-hash", "index-nl", "index-merge"}
	for _, name := range names {
		if v, ok := st.Counters["join_executed_"+name]; !ok || v != 0 {
			t.Errorf("join_executed_%s = %d (present=%v), want 0 at startup", name, v, ok)
		}
	}
	n := 0
	for name := range st.Counters {
		if strings.HasPrefix(name, "join_executed_") {
			n++
		}
	}
	if n != len(names) {
		t.Errorf("%d join_executed_* counters, want %d", n, len(names))
	}
}
