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

// TestAutoAgreesWithPlanner: the service's "auto" algorithm selection
// must be exactly the library planner's ChooseFor verdict on the same
// workload and per-partition memory — the HTTP layer adds admission and
// execution, never a different plan.
func TestAutoAgreesWithPlanner(t *testing.T) {
	s := newTestServer(t, 1500, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, grant := range []int64{64 << 10, 256 << 10, 4 << 20} {
		resp, jr := postJoin(t, ts, JoinRequest{Algorithm: "auto", MemBytes: grant})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("grant %d: status %d", grant, resp.StatusCode)
		}
		choice, err := s.pl.ChooseFor(join.Request{
			Config: s.sim,
			Params: join.Params{Workload: s.w, MRproc: grant / int64(s.cfg.D)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if jr.Algorithm != choice.Best.Algorithm.String() {
			t.Errorf("grant %d: service auto picked %s, planner library picks %v",
				grant, jr.Algorithm, choice.Best.Algorithm)
		}
		if jr.PredictedNs != int64(choice.Best.Predicted) {
			t.Errorf("grant %d: predicted %d ns, planner says %d ns",
				grant, jr.PredictedNs, int64(choice.Best.Predicted))
		}
		if len(jr.Plan) != len(choice.Candidates) {
			t.Fatalf("grant %d: %d plan entries, planner costed %d candidates",
				grant, len(jr.Plan), len(choice.Candidates))
		}
		for i, c := range choice.Candidates {
			if jr.Plan[i].Algorithm != c.Algorithm.String() {
				t.Errorf("grant %d: plan[%d] = %s, want %v", grant, i, jr.Plan[i].Algorithm, c.Algorithm)
			}
		}
	}
}

// TestConcurrentAutoJoinsShareOnePlan: a fresh server's first auto joins
// arrive together and all plan from the one workload the server holds
// (and, sharded, from each shard's, through PlanFunc calls that run
// concurrently per shard). The statistics behind the plan are counted
// once, so every response must carry the same plan table and every shard
// the same choice; -race checks the sharing.
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
