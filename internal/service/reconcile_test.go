package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmjoin/internal/mstore"
)

// answer classifies one response: endpoint, status, and whether the
// request was sent after the row's mid-load event had completed.
type answer struct {
	join   bool
	status int
	late   bool
}

// joinBody is what a 2xx join carried.
type joinBody struct {
	shards int // per-shard details in the response (0: single store)
	pairs  int64
	sig    string
	late   bool
}

// tally is the client's side of the ledger.
type tally struct {
	mu      sync.Mutex
	answers map[answer]int64
	bodies  map[joinBody]int64
}

func (ta *tally) record(a answer, body *joinBody) {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	ta.answers[a]++
	if body != nil {
		ta.bodies[*body]++
	}
}

// n counts an endpoint's responses with the given status; status 0
// counts every response.
func (ta *tally) n(join bool, status int) (n int64) {
	for a, c := range ta.answers {
		if a.join == join && (status == 0 || a.status == status) {
			n += c
		}
	}
	return n
}

// reconcileEnv is one live server, the ground truth of its store, and
// what the clients and the sampler saw.
type reconcileEnv struct {
	t  *testing.T
	s  *Server
	ts *httptest.Server
	// truth is the one correct join result per membership, keyed like
	// joinBody.shards.
	truth map[int]mstore.JoinStats
	// d and perPart bound the lookup keys that must answer 200.
	d, perPart int
	seen       tally
	eventDone  atomic.Bool

	sampleMu sync.Mutex
	last     map[string]int64 // the sampled counters at the latest sample
}

var reconcileAlgs = []string{"auto", "nested-loops", "sort-merge", "grace", "hybrid-hash"}

// client returns the request step of closed-loop client c: a seeded
// blend of Zipf lookups (one in ten aimed at a 400 or a 404) and joins
// over every staging operator plus auto (one in fifteen aimed at a 400
// or a 413), each sent, awaited and tallied before the step returns.
func (e *reconcileEnv) client(c int) func() {
	rng := rand.New(rand.NewSource(1000003 + int64(c)*7919))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(e.d*e.perPart-1))
	return func() {
		late := e.eventDone.Load()
		if rng.Intn(2) == 0 {
			key := int(zipf.Uint64())
			part, index := key%e.d, key/e.d
			switch rng.Intn(20) {
			case 0:
				part = e.d // 400
			case 1:
				index = e.s.store.Stats().NR // 404
			}
			resp, err := e.ts.Client().Get(fmt.Sprintf("%s/v1/lookup?part=%d&index=%d", e.ts.URL, part, index))
			if err != nil {
				e.t.Errorf("lookup: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			e.seen.record(answer{false, resp.StatusCode, late}, nil)
			return
		}
		req := JoinRequest{Algorithm: reconcileAlgs[rng.Intn(len(reconcileAlgs))]}
		switch rng.Intn(30) {
		case 0:
			req.Algorithm = "traditional-grace" // 400
		case 1:
			req.MemBytes = e.s.cfg.MemBudget + 1 // 413
		}
		body, _ := json.Marshal(req)
		resp, err := e.ts.Client().Post(e.ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
		if err != nil {
			e.t.Errorf("join: %v", err)
			return
		}
		defer resp.Body.Close()
		a := answer{true, resp.StatusCode, late}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			e.seen.record(a, nil)
			return
		}
		var jr JoinResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			e.t.Errorf("join body: %v", err)
		}
		e.seen.record(a, &joinBody{len(jr.Shards), jr.Pairs, jr.Signature, late})
	}
}

// closedLoop runs clients concurrent clients of n requests each and
// returns when every answer is in: the run is counted in requests, not
// timed. after is called with the running count of answers.
func closedLoop(clients, n int, client func(c int) func(), after func(k int)) {
	var wg sync.WaitGroup
	var answered atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			step := client(c)
			for i := 0; i < n; i++ {
				step()
				after(int(answered.Add(1)))
			}
		}()
	}
	wg.Wait()
}

// sample takes one snapshot and checks the request and join counters
// only ever grow. Snapshots are taken under the lock so two
// clients' samples cannot be compared out of order.
func (e *reconcileEnv) sample() {
	e.sampleMu.Lock()
	defer e.sampleMu.Unlock()
	st := e.s.StatsSnapshot()
	for _, name := range []string{
		"join_requests_total", "lookups_total", "temp_relations_total",
	} {
		if v := st.Counters[name]; v < e.last[name] {
			e.t.Errorf("counter %s went backwards: %d -> %d", name, e.last[name], v)
		} else {
			e.last[name] = v
		}
	}
}

func (e *reconcileEnv) stats() Stats {
	e.t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + "/v1/stats")
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		e.t.Fatal(err)
	}
	return st
}

// reconcile holds the client's tally against the growth of the server's
// /v1/stats counters across the run: every response the clients got is
// counted exactly once, under the right name, on the other side.
func reconcile(t *testing.T, before, after Stats, seen *tally) {
	t.Helper()
	delta := func(names ...string) (d int64) {
		for _, name := range names {
			d += after.Counters[name] - before.Counters[name]
		}
		return d
	}
	// Every executed join lands in one join_executed_<alg> counter; a
	// sharded store counts planner-routed requests under _auto.
	var executed int64
	for name, v := range after.Counters {
		if strings.HasPrefix(name, "join_executed_") {
			executed += v - before.Counters[name]
		}
	}
	for _, c := range []struct {
		name           string
		client, server int64
	}{
		{"join attempts == join_requests_total", seen.n(true, 0), delta("join_requests_total")},
		{"join 2xx == sum(join_executed_*)", seen.n(true, 200), executed},
		{"join 429 == rejected_saturated + rejected_deadline", seen.n(true, 429), delta("rejected_saturated", "rejected_deadline")},
		{"join 400 == bad_requests", seen.n(true, 400), delta("bad_requests")},
		{"join 413 == rejected_too_large", seen.n(true, 413), delta("rejected_too_large")},
		{"join 503 == rejected_draining + join_abandoned", seen.n(true, 503), delta("rejected_draining", "join_abandoned")},
		{"join 500 == errors_internal", seen.n(true, 500), delta("errors_internal")},
		{"lookup attempts == lookups_total", seen.n(false, 0), delta("lookups_total")},
		{"lookup 2xx == lookups_ok", seen.n(false, 200), delta("lookups_ok")},
		{"lookup 400 == lookups_bad_request", seen.n(false, 400), delta("lookups_bad_request")},
		{"lookup 404 == lookups_not_found", seen.n(false, 404), delta("lookups_not_found")},
		{"lookup 500 == lookups_failed", seen.n(false, 500), delta("lookups_failed")},
		{"lookup 503 == lookups_rejected_draining", seen.n(false, 503), delta("lookups_rejected_draining")},
	} {
		if c.client != c.server {
			t.Errorf("%s: client %d != server %d", c.name, c.client, c.server)
		}
	}
	if p := delta("panics_recovered"); p != 0 {
		t.Errorf("%d handler panics recovered during the run", p)
	}
}

// TestReconcile drives a live server with a request-counted closed loop
// while it is contended, drained, or losing a shard, and then demands
// that the clients' tally and /v1/stats agree exactly, that every 2xx
// join carried the one correct (pairs, signature) of the membership
// that served it, that the sampled counters only grew, and that
// admission ended empty.
func TestReconcile(t *testing.T) {
	const grant = 256 << 10
	clients, n := 8, 60
	if testing.Short() {
		n = 20
	}
	rows := []struct {
		name    string
		sharded bool
		cfg     Config
		// hold is how much of the budget the test itself keeps charged
		// until half the answers are in.
		hold int64
		// event fires once, on a client's goroutine, when half the
		// answers are in; the other clients keep sending.
		event func(e *reconcileEnv)
		// check is what only this row asserts.
		check func(e *reconcileEnv, before, after Stats)
	}{
		{
			// Two grants of budget, a three-deep queue and two workers
			// under eight clients. The test holds the whole budget for the
			// first half, so on any number of CPUs joins queue three deep
			// and overflow to 429 while lookups are served; the release
			// then admits the queue two at a time. No more than MaxQueue
			// clients can be parked, so the other five always reach the
			// halfway answer.
			name: "contended",
			cfg:  Config{MemBudget: 2 * grant, DefaultGrant: grant, MaxQueue: 3, Workers: 2},
			hold: 2 * grant,
			check: func(e *reconcileEnv, before, after Stats) {
				if e.seen.n(true, 429) == 0 || after.Admission.Queued == before.Admission.Queued {
					e.t.Errorf("%d joins throttled, %d queued; want both",
						e.seen.n(true, 429), after.Admission.Queued-before.Admission.Queued)
				}
			},
		},
		{
			name: "drain",
			cfg:  Config{MemBudget: 2 * grant, DefaultGrant: grant, MaxQueue: 4, Workers: 2},
			event: func(e *reconcileEnv) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := e.s.Drain(ctx); err != nil {
					e.t.Errorf("drain under load: %v", err)
				}
			},
			check: func(e *reconcileEnv, before, after Stats) {
				for _, join := range []bool{true, false} {
					if e.seen.answers[answer{join, http.StatusServiceUnavailable, true}] == 0 {
						e.t.Errorf("no 503 after the drain (join=%v)", join)
					}
				}
				for a, c := range e.seen.answers {
					if a.late && a.status != http.StatusServiceUnavailable {
						e.t.Errorf("%d requests sent after Drain returned answered %d (join=%v)", c, a.status, a.join)
					}
				}
				if !after.Draining {
					e.t.Error("server not draining in the after-snapshot")
				}
			},
		},
		{
			name:    "shard-removed",
			sharded: true,
			event: func(e *reconcileEnv) {
				req, _ := http.NewRequest(http.MethodDelete, e.ts.URL+"/v1/shards/shard-2", nil)
				resp, err := e.ts.Client().Do(req)
				if err != nil {
					e.t.Errorf("remove shard: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					e.t.Errorf("remove shard: status %d", resp.StatusCode)
				}
			},
			check: func(e *reconcileEnv, before, after Stats) {
				served := map[int]int64{}
				for b, c := range e.seen.bodies {
					served[b.shards] += c
					if b.late && b.shards != 2 {
						e.t.Errorf("%d joins sent after the removal returned were served by %d shards", c, b.shards)
					}
				}
				if served[3] == 0 || served[2] == 0 {
					e.t.Errorf("joins by membership %v: want both 3 and 2 shards exercised", served)
				}
				if d := after.Counters["shard_removes_total"] - before.Counters["shard_removes_total"]; d != 1 {
					e.t.Errorf("shard_removes_total grew by %d, want 1", d)
				}
				if len(after.DB.Shards) != 2 {
					e.t.Errorf("after-snapshot lists %d shards, want 2", len(after.DB.Shards))
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := &reconcileEnv{
				t:     t,
				truth: map[int]mstore.JoinStats{},
				seen:  tally{answers: map[answer]int64{}, bodies: map[joinBody]int64{}},
				last:  map[string]int64{},
			}
			if row.sharded {
				s, ts, m, want := newShardedServer(t, 1500, row.cfg)
				e.s, e.ts = s, ts
				e.truth[3], e.truth[2] = want, expectedOver(t, m.Shards[:2])
			} else {
				e.s = newTestServer(t, 2500, row.cfg)
				e.ts = httptest.NewServer(e.s.Handler())
				defer e.ts.Close()
				e.truth[0] = expectedStats(t, e.s)
			}
			before := e.stats()
			// Keys stay below the smallest shard's partitions so a lookup
			// answers 200 whichever shard the ring routes it to.
			nr := before.DB.NR
			for _, sh := range before.DB.Shards {
				nr = min(nr, sh.NR)
			}
			e.d, e.perPart = before.DB.D, nr/before.DB.D

			if row.hold > 0 {
				if err := e.s.adm.Acquire(context.Background(), row.hold); err != nil {
					t.Fatal(err)
				}
			}
			e.sample()
			closedLoop(clients, n, e.client, func(k int) {
				if k%8 == 0 {
					e.sample()
				}
				if k != clients*n/2 {
					return
				}
				if row.hold > 0 {
					e.s.adm.Release(row.hold)
				}
				if row.event != nil {
					row.event(e)
					e.eventDone.Store(true)
				}
			})
			after := e.stats()

			reconcile(t, before, after, &e.seen)
			if e.seen.n(true, 200) == 0 || e.seen.n(false, 200) == 0 {
				t.Errorf("%d joins and %d lookups succeeded; want both", e.seen.n(true, 200), e.seen.n(false, 200))
			}
			var bodies int64
			for b, c := range e.seen.bodies {
				bodies += c
				want := e.truth[b.shards]
				if b.pairs != want.Pairs || b.sig != fmt.Sprintf("%016x", want.Signature) {
					t.Errorf("%d joins over %d shards returned %d/%s, want %d/%016x",
						c, b.shards, b.pairs, b.sig, want.Pairs, want.Signature)
				}
			}
			if bodies != e.seen.n(true, 200) {
				t.Errorf("checked %d join bodies for %d 2xx joins", bodies, e.seen.n(true, 200))
			}
			if after.Admission.QueueDepth != 0 || after.Admission.UsedBytes != 0 {
				t.Errorf("admission not empty after load: depth %d, used %d bytes",
					after.Admission.QueueDepth, after.Admission.UsedBytes)
			}
			row.check(e, before, after)
		})
	}
}
