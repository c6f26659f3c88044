package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/model"
	"mmjoin/internal/mstore"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
)

// TestAutoAgreesWithExplain: the service's auto join runs the first
// entry of its plan table and reports that entry's prediction; the table
// is every operator the store runs, cheapest first, exactly as the store
// explains them with no grant (MRproc 0) — the HTTP layer adds admission
// and execution, never a different plan. Nothing meters memory while a
// join runs, so the grant a request is charged moves neither the table
// nor the join: from one page a partition to 4 MiB the table is the same
// and the response reports MRproc 0.
func TestAutoAgreesWithExplain(t *testing.T) {
	s := newTestServer(t, 1500, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	plans, err := mstore.Rank(s.store, mstore.JoinRequest{Pool: s.pool}, mstore.Operators(false))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if i > 0 && p.PredictedNs < plans[i-1].PredictedNs {
			t.Errorf("plan[%d] predicted %d ns after %d ns", i, p.PredictedNs, plans[i-1].PredictedNs)
		}
	}
	for _, grant := range []int64{int64(s.d) * 4096, 256 << 10, 4 << 20} {
		resp, jr := postJoin(t, ts, JoinRequest{Algorithm: "auto", MemBytes: grant})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("grant %d: status %d", grant, resp.StatusCode)
		}
		if len(jr.Plan) == 0 || jr.Algorithm != jr.Plan[0].Algorithm || jr.PredictedNs != jr.Plan[0].PredictedNs {
			t.Fatalf("grant %d: ran %s predicted %d ns, plan table %+v", grant, jr.Algorithm, jr.PredictedNs, jr.Plan)
		}
		if jr.MRproc != 0 || jr.MemBytes != grant {
			t.Errorf("grant %d: reported mrprocBytes %d, memBytes %d; want 0 and the grant charged", grant, jr.MRproc, jr.MemBytes)
		}
		if len(jr.Plan) != len(plans) {
			t.Fatalf("grant %d: %d plan entries, the store explains %d operators", grant, len(jr.Plan), len(plans))
		}
		for i, p := range plans {
			if want := (PlanEntry{Algorithm: p.Algorithm.String(), PredictedNs: p.PredictedNs}); jr.Plan[i] != want {
				t.Errorf("grant %d: plan[%d] = %+v, the store explains %+v with no grant", grant, i, jr.Plan[i], want)
			}
		}
	}
}

// TestConcurrentAutoJoinsShareOnePlan: a fresh server's first auto joins
// arrive together and all plan from the one histogram and profile each
// store handle holds (and, sharded, each shard's PlanFunc from the
// shard's one workload, in calls that run concurrently per shard). Both
// are measured once, so every response must carry the same plan table
// and every shard the same choice; -race checks the sharing.
func TestConcurrentAutoJoinsShareOnePlan(t *testing.T) {
	const clients, grant = 8, 128 << 10
	fire := func(t *testing.T, ts *httptest.Server) {
		t.Helper()
		plans := make([][]PlanEntry, clients)
		var wg sync.WaitGroup
		for g := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, jr, err := doJoin(ts, JoinRequest{Algorithm: "auto", MemBytes: grant})
				if err != nil {
					t.Errorf("client %d: %v", g, err)
				} else if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", g, resp.StatusCode)
				}
				plans[g] = jr.Plan
			}()
		}
		wg.Wait()
		if len(plans[0]) == 0 {
			t.Fatal("auto join returned no plan table")
		}
		for g, p := range plans {
			if !reflect.DeepEqual(p, plans[0]) {
				t.Errorf("client %d planned %+v, client 0 %+v", g, p, plans[0])
			}
		}
	}

	t.Run("single store", func(t *testing.T) {
		s := newTestServer(t, 1500, Config{MemBudget: clients * grant})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		fire(t, ts)
	})

	t.Run("3 shards", func(t *testing.T) {
		mcfg := machine.DefaultConfig()
		mcfg.D = 3
		pl := planner.New(model.Calibrate(mcfg, 60, 1), nil)
		var mu sync.Mutex
		perShard := map[string]map[string]int{} // shard id -> rendered choice -> times made
		_, ts, m, _ := newPlannedShardedServer(t, 1500, Config{MemBudget: clients * grant},
			func(id string, w *relation.Workload, req mstore.JoinRequest) (join.Algorithm, error) {
				choice, err := pl.ChooseFor(join.Request{Config: mcfg, Params: join.Params{Workload: w, MRproc: req.MRproc, K: req.K}})
				if err != nil {
					return 0, err
				}
				mu.Lock()
				defer mu.Unlock()
				if perShard[id] == nil {
					perShard[id] = map[string]int{}
				}
				var key string
				for _, c := range choice.Candidates {
					key += fmt.Sprintf("%v=%d ", c.Algorithm, c.Predicted)
				}
				perShard[id][key]++
				return choice.Best.Algorithm, nil
			})
		fire(t, ts)
		if len(perShard) != len(m.Shards) {
			t.Errorf("%d shards planned, want %d", len(perShard), len(m.Shards))
		}
		for id, choices := range perShard {
			if len(choices) != 1 {
				t.Errorf("shard %s made %d different choices for one request shape: %v", id, len(choices), choices)
			}
		}
	})
}
