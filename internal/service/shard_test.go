package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
	"mmjoin/internal/relation"
	"mmjoin/internal/shard"
)

// newShardedServer builds a 3-shard store from one source database and
// serves it. Returns the server, the test HTTP server, the shard map,
// and the source's expected stats.
func newShardedServer(t *testing.T, objects int, cfg Config) (*Server, *httptest.Server, *shard.Map, mstore.JoinStats) {
	t.Helper()
	return newPlannedShardedServer(t, objects, cfg, func(string, *relation.Workload, mstore.JoinRequest) (join.Algorithm, error) {
		return join.Grace, nil
	})
}

// newPlannedShardedServer is newShardedServer with the router's per-shard
// planning supplied by the caller.
func newPlannedShardedServer(t *testing.T, objects int, cfg Config, plan shard.PlanFunc) (*Server, *httptest.Server, *shard.Map, mstore.JoinStats) {
	t.Helper()
	base, m, want := splitShards(t, objects)
	s, ts := serveShards(t, base, m, cfg, plan)
	return s, ts, m, want
}

// splitShards splits one source database into 3 shards under a fresh
// directory, returned with the shard map and the source's expected
// stats.
func splitShards(t *testing.T, objects int) (string, *shard.Map, mstore.JoinStats) {
	t.Helper()
	base := t.TempDir()
	srcDir := filepath.Join(base, "src")
	src, err := mstore.CreateDB(srcDir, 3, objects, objects, 32, 23)
	if err != nil {
		t.Fatal(err)
	}
	want := src.ExpectedStats()
	src.Close()

	outs := []string{
		filepath.Join(base, "shard-0"),
		filepath.Join(base, "shard-1"),
		filepath.Join(base, "shard-2"),
	}
	m, err := shard.Split(srcDir, 3, outs)
	if err != nil {
		t.Fatal(err)
	}
	return base, m, want
}

// serveShards mounts the shards of m behind a router and serves it, with
// every join's temporaries under base/tmp.
func serveShards(t *testing.T, base string, m *shard.Map, cfg Config, plan shard.PlanFunc) (*Server, *httptest.Server) {
	t.Helper()
	router, err := shard.Open(m, shard.Config{
		MapPath:  filepath.Join(base, "shards.json"),
		PlanFunc: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = router
	cfg.TmpDir = filepath.Join(base, "tmp")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// expectedOver folds the ground truth of the given shards: what a join
// over exactly that membership must return.
func expectedOver(t *testing.T, shards []shard.Entry) mstore.JoinStats {
	t.Helper()
	var st mstore.JoinStats
	for _, e := range shards {
		db, err := mstore.OpenDB(e.Dir, e.D)
		if err != nil {
			t.Fatal(err)
		}
		st.Fold(db.ExpectedStats())
		db.Close()
	}
	return st
}

func decodeError(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	resp.Body.Close()
	return env.Error
}

// TestShardedServiceJoin checks a /v1/join against a 3-shard store
// returns the single-store signature with a per-shard breakdown, for
// concrete algorithms and for auto (per-shard planning).
func TestShardedServiceJoin(t *testing.T) {
	s, ts, _, want := newShardedServer(t, 900, Config{})
	for _, alg := range []string{"auto", "grace", "hybrid-hash", "sort-merge", "nested-loops"} {
		body, _ := json.Marshal(JoinRequest{Algorithm: alg})
		resp, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jr JoinResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", alg, resp.StatusCode)
		}
		if jr.Pairs != want.Pairs || jr.Signature != fmt.Sprintf("%016x", want.Signature) {
			t.Fatalf("%s: pairs=%d sig=%s, want pairs=%d sig=%016x",
				alg, jr.Pairs, jr.Signature, want.Pairs, want.Signature)
		}
		if len(jr.Shards) != 3 {
			t.Fatalf("%s: %d shard details, want 3", alg, len(jr.Shards))
		}
		if jr.Algorithm != alg {
			t.Errorf("%s: response algorithm %q", alg, jr.Algorithm)
		}
		var sum int64
		for _, det := range jr.Shards {
			sum += det.Pairs
			if alg != "auto" && det.Algorithm != alg {
				t.Errorf("%s: shard %s ran %s", alg, det.Shard, det.Algorithm)
			}
			if alg == "auto" && det.Algorithm != "grace" {
				t.Errorf("auto: shard %s ran %s, PlanFunc always picks grace", det.Shard, det.Algorithm)
			}
		}
		if sum != want.Pairs {
			t.Errorf("%s: shard pairs sum %d != %d", alg, sum, want.Pairs)
		}
	}
	// Every shard's join made its directory under the server's TmpDir
	// and removed it.
	if left, err := os.ReadDir(s.cfg.TmpDir); err != nil || len(left) != 0 {
		t.Fatalf("TmpDir after the joins: %v, holding %v", err, left)
	}
}

// TestShardedAutoFollowsIndexedMembership: auto plans over the operators
// the live shards run now. An indexed router that gains an unindexed
// shard explains the four staging joins only, and all six again once
// that shard has left.
func TestShardedAutoFollowsIndexedMembership(t *testing.T) {
	base, m, _ := splitShards(t, 600)
	for _, e := range m.Shards[:2] {
		db, err := mstore.OpenDB(e.Dir, e.D)
		if err != nil {
			t.Fatal(err)
		}
		err = db.BuildIndexes(context.Background(), nil)
		db.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	indexed := *m
	indexed.Shards = m.Shards[:2]
	_, ts := serveShards(t, base, &indexed, Config{}, func(string, *relation.Workload, mstore.JoinRequest) (join.Algorithm, error) {
		return join.Grace, nil
	})
	auto := func(event string, plans int) {
		t.Helper()
		resp, jr := postJoin(t, ts, JoinRequest{})
		if resp.StatusCode != http.StatusOK || len(jr.Plan) != plans {
			t.Fatalf("auto %s: status %d, %d plan entries; want 200 and %d", event, resp.StatusCode, len(jr.Plan), plans)
		}
	}
	auto("on the indexed router", 6)
	add, _ := json.Marshal(ShardAddRequest{ID: "shard-2", Dir: m.Shards[2].Dir, D: m.Shards[2].D})
	resp, err := ts.Client().Post(ts.URL+"/v1/shards", "application/json", bytes.NewReader(add))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("adding the unindexed shard: status %d", resp.StatusCode)
	}
	auto("after adding an unindexed shard", 4)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/shards/shard-2", nil)
	if resp, err = ts.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("removing the unindexed shard: status %d", resp.StatusCode)
	}
	auto("after removing it", 6)
}

// TestShardedAutoCountsWhatShardsRan: on a router an auto join runs
// each shard's PlanFunc pick, not the plan table's head, so
// plan_choice_* counts one pick per shard and nothing for the table.
func TestShardedAutoCountsWhatShardsRan(t *testing.T) {
	_, ts, _, _ := newPlannedShardedServer(t, 600, Config{}, func(string, *relation.Workload, mstore.JoinRequest) (join.Algorithm, error) {
		return join.NestedLoops, nil
	})
	resp, jr := postJoin(t, ts, JoinRequest{})
	if resp.StatusCode != http.StatusOK || len(jr.Shards) != 3 {
		t.Fatalf("auto: status %d, %d shards", resp.StatusCode, len(jr.Shards))
	}
	if jr.Plan[0].Algorithm == "nested-loops" {
		t.Fatalf("the plan table's head is nested-loops; the case needs the shards' pick to differ from it")
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v := st.Counters["plan_choice_nested-loops"]; v != 3 {
		t.Errorf("plan_choice_nested-loops = %d, want 3 (one a shard)", v)
	}
	for name, v := range st.Counters {
		if strings.HasPrefix(name, "plan_choice_") && name != "plan_choice_nested-loops" && v != 0 {
			t.Errorf("%s = %d, want 0: no shard ran it", name, v)
		}
	}
}

// TestShardedServiceLookup checks /v1/lookup reports the answering
// shard and maps the routed shard's bounds onto 400/404 envelope codes.
func TestShardedServiceLookup(t *testing.T) {
	s, ts, _, _ := newShardedServer(t, 600, Config{})

	resp, err := http.Get(ts.URL + "/v1/lookup?part=1&index=3")
	if err != nil {
		t.Fatal(err)
	}
	var lr LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lr.Shard == "" {
		t.Fatalf("status %d shard %q, want 200 with a shard id", resp.StatusCode, lr.Shard)
	}
	direct, err := s.store.Lookup(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lr.SWord != direct.SWord || lr.Shard != direct.Shard {
		t.Fatalf("wire %+v disagrees with store %+v", lr, direct)
	}

	resp, err = http.Get(ts.URL + "/v1/lookup?part=99&index=0")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
		t.Fatalf("part=99: status %d code %q", resp.StatusCode, e.Code)
	}
	resp, err = http.Get(ts.URL + "/v1/lookup?part=0&index=99999999")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("huge index: status %d code %q", resp.StatusCode, e.Code)
	}
}

// TestShardedServiceStats checks /v1/stats carries the per-shard layout,
// and that a sharded join runs on the service's one pool: the top-level
// pool executes its morsels, and no shard reports a pool of its own.
func TestShardedServiceStats(t *testing.T) {
	_, ts, _, _ := newShardedServer(t, 600, Config{})
	body, _ := json.Marshal(JoinRequest{Algorithm: "grace"})
	resp, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.DB.Kind != "sharded" || len(st.DB.Shards) != 3 {
		t.Fatalf("kind %q with %d shards", st.DB.Kind, len(st.DB.Shards))
	}
	if st.Pool.Executed == 0 {
		t.Errorf("a sharded join executed no morsels on the service pool: %+v", st.Pool)
	}
	for _, sh := range st.DB.Shards {
		if sh.Pool != (exec.Stats{}) {
			t.Errorf("shard %s reports a pool of its own: %+v", sh.ID, sh.Pool)
		}
	}
	var nr int
	for _, sh := range st.DB.Shards {
		nr += sh.NR
	}
	if nr != 600 || st.DB.NR != 600 {
		t.Fatalf("shard NR sum %d, total %d, want 600", nr, st.DB.NR)
	}
}

// TestShardedServiceMembership drives the /v1/shards management
// surface: list, remove-with-drain, re-add — and checks joins reflect
// each membership.
func TestShardedServiceMembership(t *testing.T) {
	_, ts, m, want := newShardedServer(t, 900, Config{})
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Kind   string             `json:"kind"`
		Shards []mstore.ShardInfo `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Kind != "sharded" || len(list.Shards) != 3 {
		t.Fatalf("list: %+v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/shards/shard-2", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d", resp.StatusCode)
	}

	// Joins now cover two shards only.
	reduced := expectedOver(t, m.Shards[:2])
	body, _ := json.Marshal(JoinRequest{Algorithm: "grace"})
	resp, err = client.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Pairs != reduced.Pairs || len(jr.Shards) != 2 {
		t.Fatalf("post-removal: pairs=%d shards=%d, want pairs=%d shards=2",
			jr.Pairs, len(jr.Shards), reduced.Pairs)
	}

	// Removing a shard that is gone is a 404 with the envelope code.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/shards/shard-2", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("double remove: status %d code %q", resp.StatusCode, e.Code)
	}

	// Re-add through the API and confirm the full signature returns.
	add, _ := json.Marshal(ShardAddRequest{ID: "shard-2", Dir: m.Shards[2].Dir, D: m.Shards[2].D})
	resp, err = client.Post(ts.URL+"/v1/shards", "application/json", bytes.NewReader(add))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-add: status %d", resp.StatusCode)
	}
	resp, err = client.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Pairs != want.Pairs || jr.Signature != fmt.Sprintf("%016x", want.Signature) {
		t.Fatalf("post-re-add: pairs=%d sig=%s, want %d/%016x",
			jr.Pairs, jr.Signature, want.Pairs, want.Signature)
	}
}

// TestShardedServiceNotSharded checks the management endpoints answer
// 409 not_sharded on a single-store server.
func TestShardedServiceNotSharded(t *testing.T) {
	s := newTestServer(t, 120, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	add, _ := json.Marshal(ShardAddRequest{ID: "x", Dir: "/nope", D: 1})
	resp, err := http.Post(ts.URL+"/v1/shards", "application/json", bytes.NewReader(add))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusConflict || e.Code != "not_sharded" {
		t.Fatalf("add on single store: status %d code %q", resp.StatusCode, e.Code)
	}

	// The list endpoint is informational either way.
	resp, err = http.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || list.Kind != "single" {
		t.Fatalf("list on single store: status %d kind %q", resp.StatusCode, list.Kind)
	}
}

// TestShardedServiceVersionedAliases checks the surface is /v1 only:
// the versioned paths serve, and the legacy unversioned aliases that
// used to share their handlers now answer 404.
func TestShardedServiceVersionedAliases(t *testing.T) {
	_, ts, _, want := newShardedServer(t, 600, Config{})
	body, _ := json.Marshal(JoinRequest{Algorithm: "sort-merge"})
	resp, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Pairs != want.Pairs {
		t.Fatalf("/v1/join: pairs %d, want %d", jr.Pairs, want.Pairs)
	}
	resp, err = http.Post(ts.URL+"/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /join: status %d, want 404", resp.StatusCode)
	}
	for path, status := range map[string]int{
		"/v1/healthz": http.StatusOK,
		"/healthz":    http.StatusNotFound, "/lookup?part=0&index=0": http.StatusNotFound, "/stats": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
		}
	}
}
