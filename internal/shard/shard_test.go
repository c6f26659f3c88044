package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
	"mmjoin/internal/relation"
)

// buildSharded creates one source database, splits it into n shards,
// and returns the source dir, the shard map, and the source's expected
// stats (the ground truth every sharded join must reproduce).
func buildSharded(t *testing.T, objects, d, n int) (string, *Map, mstore.JoinStats) {
	t.Helper()
	base := t.TempDir()
	srcDir := filepath.Join(base, "src")
	src, err := mstore.CreateDB(srcDir, d, objects, objects, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	want := src.ExpectedStats()
	src.Close()

	outs := make([]string, n)
	for k := range outs {
		outs[k] = filepath.Join(base, fmt.Sprintf("shard-%d", k))
	}
	m, err := Split(srcDir, d, outs)
	if err != nil {
		t.Fatal(err)
	}
	return srcDir, m, want
}

func openRouter(t *testing.T, m *Map, cfg Config) *Router {
	t.Helper()
	r, err := Open(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// roundRobinPlan is a deterministic PlanFunc exercising per-shard
// heterogeneity: different shards pick different algorithms, and the
// merged result must not care.
func roundRobinPlan(shardID string, w *relation.Workload, req mstore.JoinRequest) (join.Algorithm, error) {
	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}
	return algs[int(fnv64a(shardID)%uint64(len(algs)))], nil
}

// TestShardScatterGatherBitIdentical is the acceptance invariant: a
// 3-shard scatter-gather join returns bit-identical Pairs/Signature to
// the single-store join over the same logical relation, for every
// algorithm and for auto (per-shard planning).
func TestShardScatterGatherBitIdentical(t *testing.T) {
	_, m, want := buildSharded(t, 4800, 4, 3)
	r := openRouter(t, m, Config{PlanFunc: roundRobinPlan})

	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash, join.Auto}
	for _, alg := range algs {
		tel := &mstore.JoinTelemetry{}
		st, details, err := r.RunShards(mstore.JoinRequest{
			Algorithm: alg, MRproc: 768 << 10, Telemetry: tel,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if st != want {
			t.Fatalf("%v: merged %+v, want %+v", alg, st, want)
		}
		if len(details) != 3 {
			t.Fatalf("%v: %d shard details, want 3", alg, len(details))
		}
		var refold mstore.JoinStats
		for _, det := range details {
			refold.Fold(mstore.JoinStats{Pairs: det.Pairs, Signature: det.Signature})
			if det.ElapsedNs <= 0 {
				t.Errorf("%v: shard %s reported elapsed %d", alg, det.Shard, det.ElapsedNs)
			}
			if alg != join.Auto && det.Algorithm != alg.String() {
				t.Errorf("%v: shard %s executed %s", alg, det.Shard, det.Algorithm)
			}
		}
		if refold != st {
			t.Fatalf("%v: detail refold %+v != merged %+v", alg, refold, st)
		}
	}
}

// TestShardAutoPlansPerShard checks auto planning consults PlanFunc
// once per shard with that shard's own workload.
func TestShardAutoPlansPerShard(t *testing.T) {
	_, m, want := buildSharded(t, 1200, 2, 3)
	var mu sync.Mutex
	seen := map[string]int{}
	plan := func(id string, w *relation.Workload, req mstore.JoinRequest) (join.Algorithm, error) {
		mu.Lock()
		seen[id] = w.Spec.NR
		mu.Unlock()
		return join.Grace, nil
	}
	r := openRouter(t, m, Config{PlanFunc: plan})
	st, err := r.Run(mstore.JoinRequest{Algorithm: join.Auto, MRproc: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("auto merged %+v, want %+v", st, want)
	}
	if len(seen) != 3 {
		t.Fatalf("planned %d shards, want 3: %v", len(seen), seen)
	}
	total := 0
	for id, nr := range seen {
		if nr <= 0 {
			t.Errorf("shard %s planned with NR=%d", id, nr)
		}
		total += nr
	}
	if total != 1200 {
		t.Errorf("per-shard workloads total NR=%d, want 1200", total)
	}
}

// TestShardJoinStatsFoldProperty pins the merge algebra the router
// relies on: folding per-shard JoinStats is commutative and
// associative, so every scatter order and grouping merges identically.
func TestShardJoinStatsFoldProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		parts := make([]mstore.JoinStats, n)
		for i := range parts {
			parts[i] = mstore.JoinStats{Pairs: rng.Int63n(1 << 40), Signature: rng.Uint64()}
		}
		fold := func(order []int) mstore.JoinStats {
			var acc mstore.JoinStats
			for _, i := range order {
				acc.Fold(parts[i])
			}
			return acc
		}
		base := fold(rng.Perm(n))
		if got := fold(rng.Perm(n)); got != base {
			t.Fatalf("fold not commutative: %+v vs %+v", got, base)
		}
		// Associativity: fold a random split's partial sums.
		cut := 1 + rng.Intn(n-1)
		left, right := fold(seq(0, cut)), fold(seq(cut, n))
		var grouped mstore.JoinStats
		grouped.Fold(left)
		grouped.Fold(right)
		if grouped != fold(seq(0, n)) {
			t.Fatalf("fold not associative: %+v vs %+v", grouped, fold(seq(0, n)))
		}
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestShardSplitShapes checks the split's physical properties: every
// shard passes Verify, R is balanced within one object per source
// partition, and S is fully replicated.
func TestShardSplitShapes(t *testing.T) {
	_, m, _ := buildSharded(t, 3001, 4, 3)
	var total int
	for _, e := range m.Shards {
		db, err := mstore.OpenDB(e.Dir, e.D)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Verify(); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		if db.CountS() != 3001 {
			t.Errorf("%s: S count %d, want full replica 3001", e.ID, db.CountS())
		}
		total += db.CountR()
		db.Close()
	}
	if total != 3001 {
		t.Fatalf("shards hold %d R objects, want 3001", total)
	}
}

// TestShardSplitRefusesBadPointers: Split resolves every stored pointer
// by the source's own rule, so a pointer 8 bytes into S0[3] or into
// partition 5 of 2, which a join over the source refuses, fails the
// split naming R0[0], before any shard is written, instead of being
// re-encoded as S0[3] or indexing past the replicas.
func TestShardSplitRefusesBadPointers(t *testing.T) {
	for name, bad := range map[string]func(db *mstore.DB) mstore.SPtr{
		"8 bytes into S0[3]": func(db *mstore.DB) mstore.SPtr { return mstore.SPtr{Part: 0, Off: db.S[0].PtrAt(3) + 8} },
		"partition 5 of 2":   func(db *mstore.DB) mstore.SPtr { return mstore.SPtr{Part: 5, Off: db.S[0].PtrAt(3)} },
	} {
		base := t.TempDir()
		srcDir := filepath.Join(base, "src")
		src, err := mstore.CreateDB(srcDir, 2, 100, 100, 64, 7)
		if err != nil {
			t.Fatal(err)
		}
		src.R[0].SetJoinAttr(0, bad(src))
		if _, err := src.Run(mstore.JoinRequest{Algorithm: join.Grace}); err == nil {
			t.Fatalf("%s: the source's join succeeded", name)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		outs := []string{filepath.Join(base, "a"), filepath.Join(base, "b")}
		m, err := Split(srcDir, 2, outs)
		if err == nil || !strings.Contains(err.Error(), "R0[0]") || !strings.Contains(err.Error(), "dangling pointer") {
			t.Errorf("%s: split returned %v, %v; want an error naming R0[0] as a dangling pointer", name, m, err)
		}
		for _, out := range outs {
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("%s: the failed split left %s behind (%v)", name, out, err)
			}
		}
	}
}

// TestShardLookupRouting checks lookups land on exactly the ring owner,
// report the answering shard, and validate bounds against the routed
// shard rather than any global shape.
func TestShardLookupRouting(t *testing.T) {
	_, m, _ := buildSharded(t, 900, 3, 3)
	r := openRouter(t, m, Config{})

	// The smallest per-shard per-partition count bounds always-valid
	// indexes.
	minCount := 1 << 30
	for _, e := range m.Shards {
		db, err := mstore.OpenDB(e.Dir, e.D)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range db.R {
			if c := rel.Count(); c < minCount {
				minCount = c
			}
		}
		db.Close()
	}
	if minCount < 10 {
		t.Fatalf("degenerate split: min per-part count %d", minCount)
	}

	_, ring, err := r.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	byShard := map[string]int{}
	for part := 0; part < 3; part++ {
		for index := 0; index < minCount; index++ {
			res, err := r.Lookup(part, index)
			if err != nil {
				t.Fatalf("lookup %d/%d: %v", part, index, err)
			}
			owner, _ := ring.owner(lookupKey(part, index))
			if res.Shard != owner {
				t.Fatalf("lookup %d/%d answered by %s, ring owner %s", part, index, res.Shard, owner)
			}
			byShard[res.Shard]++
		}
	}
	// With only a few hundred distinct keys the ring may starve one
	// shard; balance over large keyspaces is TestShardRingStability's
	// job. Here we only require genuine spread.
	if len(byShard) < 2 {
		t.Errorf("lookups hit %d shards, want spread: %v", len(byShard), byShard)
	}

	if _, err := r.Lookup(99, 0); !errorsIs(err, mstore.ErrPartRange) || !strings.Contains(err.Error(), `shard "`) {
		t.Errorf("part 99: %v, want ErrPartRange naming the shard", err)
	}
	if _, err := r.Lookup(0, 1<<30); !errorsIs(err, mstore.ErrIndexRange) || !strings.Contains(err.Error(), `shard "`) {
		t.Errorf("huge index: %v, want ErrIndexRange naming the shard", err)
	}
}

// errorsIs avoids importing errors twice alongside the stdlib name
// used by mstore.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestShardRingStability checks consistent-hash routing: rebuilding the
// same membership reproduces owners exactly, and removing one shard
// moves only the keys that shard owned.
func TestShardRingStability(t *testing.T) {
	ids := []string{"a", "b", "c", "d"}
	r1 := newRing(ids)
	r2 := newRing([]string{"d", "c", "b", "a"}) // order-independent
	counts := map[string]int{}
	moved, kept := 0, 0
	reduced := newRing([]string{"a", "b", "d"})
	for i := 0; i < 4000; i++ {
		key := lookupKey(i%7, i)
		o1, _ := r1.owner(key)
		o2, _ := r2.owner(key)
		if o1 != o2 {
			t.Fatalf("key %s: owner %s vs %s across identical memberships", key, o1, o2)
		}
		counts[o1]++
		ro, _ := reduced.owner(key)
		if o1 == "c" {
			moved++
		} else if ro != o1 {
			t.Fatalf("key %s moved %s→%s though %s stayed in the ring", key, o1, ro, o1)
		} else {
			kept++
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d shards own keys: %v", len(counts), counts)
	}
	for id, c := range counts {
		if c < 4000/4/3 {
			t.Errorf("shard %s owns only %d/4000 keys (badly unbalanced ring)", id, c)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate removal: moved=%d kept=%d", moved, kept)
	}
}

// TestShardDrainMidJoinSoak removes (and re-adds) a shard while joins
// stream through the router. Every join must land on one of the two
// consistent memberships — all three shards, or the two survivors —
// with nothing torn in between; joins begun before the removal complete
// against the mapping (drain waits), and joins begun after the re-add
// see all three again. Run with -race in CI.
func TestShardDrainMidJoinSoak(t *testing.T) {
	_, m, wantFull := buildSharded(t, 1500, 2, 3)
	r := openRouter(t, m, Config{})

	// Ground truth for the reduced membership: fold the survivors.
	var wantReduced mstore.JoinStats
	for _, e := range m.Shards {
		if e.ID == "shard-1" {
			continue
		}
		db, err := mstore.OpenDB(e.Dir, e.D)
		if err != nil {
			t.Fatal(err)
		}
		wantReduced.Fold(db.ExpectedStats())
		db.Close()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			alg := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}[g%4]
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, err := r.Run(mstore.JoinRequest{Algorithm: alg, MRproc: 1 << 20})
				if err != nil {
					select {
					case errc <- fmt.Errorf("%v: %w", alg, err):
					default:
					}
					return
				}
				if st != wantFull && st != wantReduced {
					select {
					case errc <- fmt.Errorf("%v: torn result %+v (want %+v or %+v)", alg, st, wantFull, wantReduced):
					default:
					}
					return
				}
			}
		}(g)
	}

	// The service sizes every join request's K bound with Stats().NR, so
	// the totals are read while membership churns: they must never touch
	// a shard's mapping after the removal has released it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := r.Stats(); st.NR <= 0 || st.NS <= 0 {
				select {
				case errc <- fmt.Errorf("NR=%d NS=%d with live shards", st.NR, st.NS):
				default:
				}
				return
			}
		}
	}()

	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := r.RemoveShard(ctx, "shard-1"); err != nil {
		t.Fatal(err)
	}
	cancel()

	// With the shard gone, results must be exactly the reduced truth.
	st, err := r.Run(mstore.JoinRequest{Algorithm: join.Grace, MRproc: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if st != wantReduced {
		t.Fatalf("post-removal join %+v, want %+v", st, wantReduced)
	}
	if got := r.Stats(); len(got.Shards) != 2 {
		t.Fatalf("stats show %d shards after removal", len(got.Shards))
	}

	// Re-add and confirm the full membership returns.
	if err := r.AddShard("shard-1", m.Shards[1].Dir, m.Shards[1].D); err != nil {
		t.Fatal(err)
	}
	st, err = r.Run(mstore.JoinRequest{Algorithm: join.SortMerge, MRproc: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if st != wantFull {
		t.Fatalf("post-re-add join %+v, want %+v", st, wantFull)
	}

	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestShardMapRoundTrip checks the on-disk format and its validation.
func TestShardMapRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.json")
	m := &Map{
		Shards: []Entry{
			{ID: "a", Dir: "/x/a", D: 4},
			{ID: "b", Dir: "/x/b", D: 4},
		},
	}
	if err := WriteMap(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMap(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != MapSchema || len(got.Shards) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	for _, bad := range []*Map{
		{},
		{Shards: []Entry{{ID: "", Dir: "/x", D: 1}}},
		{Shards: []Entry{{ID: "a", Dir: "", D: 1}}},
		{Shards: []Entry{{ID: "a", Dir: "/x", D: 0}}},
		{Shards: []Entry{{ID: "a", Dir: "/x", D: 1}, {ID: "a", Dir: "/y", D: 1}}},
		{Schema: "bogus/v9", Shards: []Entry{{ID: "a", Dir: "/x", D: 1}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("validated %+v", bad)
		}
	}
}

// TestShardGrantSplitBounds checks the per-partition grant is divided
// across shards: Σ over shards of D_shard·MRproc_shard never exceeds the
// request's D·MRproc, every shard gets a positive share, the merged
// result is exact, and an unbounded request (MRproc 0) stays unbounded
// on every shard.
func TestShardGrantSplitBounds(t *testing.T) {
	const d, shards = 2, 3
	_, m, want := buildSharded(t, 3000, d, shards)
	var mu sync.Mutex
	mrprocOf := map[string]int64{}
	r := openRouter(t, m, Config{
		PlanFunc: func(id string, _ *relation.Workload, sub mstore.JoinRequest) (join.Algorithm, error) {
			mu.Lock()
			defer mu.Unlock()
			mrprocOf[id] = sub.MRproc
			return join.Grace, nil
		}})

	const mrproc = shards * 4096
	st, details, err := r.RunShards(mstore.JoinRequest{
		Algorithm: join.Auto, MRproc: mrproc, K: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("bounded merged %+v, want %+v", st, want)
	}
	var sum int64
	for _, det := range details {
		share := d * mrprocOf[det.Shard]
		sum += share
		if share == 0 {
			t.Errorf("shard %s ran with no share of a bounded grant", det.Shard)
		}
	}
	if sum > d*mrproc {
		t.Errorf("shares sum to %d, over the request's D·MRproc = %d", sum, d*mrproc)
	}

	if _, _, err := r.RunShards(mstore.JoinRequest{Algorithm: join.Auto}); err != nil {
		t.Fatal(err)
	}
	for id, got := range mrprocOf {
		if got != 0 {
			t.Errorf("shard %s: unbounded request became MRproc %d", id, got)
		}
	}
}

// TestShardRunsOnCallersPool checks every shard's morsels run on the
// request's pool: one worker bounds the whole scatter, a warm join —
// every shard's histogram counted — is exactly one pool job, and the
// fold is still exact.
func TestShardRunsOnCallersPool(t *testing.T) {
	_, m, want := buildSharded(t, 1500, 2, 3)
	r := openRouter(t, m, Config{})
	p := exec.NewPool(1)
	defer p.Close()
	jobs := int64(0)
	for round := range 2 {
		st, err := r.Run(mstore.JoinRequest{Algorithm: join.Grace, MRproc: 1 << 20, Pool: p})
		if err != nil {
			t.Fatal(err)
		}
		if st != want {
			t.Fatalf("round %d: merged %+v, want %+v", round, st, want)
		}
		ps := p.Stats()
		if ps.PeakBusy > 1 || round == 1 && ps.Jobs-jobs != 1 {
			t.Fatalf("round %d: the caller's pool ran %d jobs at peak occupancy %d, want 1 job on 1 worker", round, ps.Jobs-jobs, ps.PeakBusy)
		}
		jobs = ps.Jobs
	}
}

// TestShardFailureNamesTheFailingShard: one R pointer of shard-2 moved
// to a partition no store has fails the join with shard-2's own error,
// never a sibling's cancellation, and no shard's temp arena — shards 0
// and 1 open theirs before shard-2's histogram fails — is left behind.
func TestShardFailureNamesTheFailingShard(t *testing.T) {
	_, m, _ := buildSharded(t, 60000, 2, 3)
	rel := m.Shards[2]
	db, err := mstore.OpenDB(rel.Dir, rel.D)
	if err != nil {
		t.Fatal(err)
	}
	db.R[0].SetJoinAttr(0, mstore.SPtr{Part: 99})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	r := openRouter(t, m, Config{})
	p := exec.NewPool(2)
	defer p.Close()
	for range 5 {
		_, err := r.Run(mstore.JoinRequest{Algorithm: join.Grace, MRproc: 1 << 20, Pool: p})
		if err == nil || !strings.HasPrefix(err.Error(), `shard "shard-2": `) || errors.Is(err, context.Canceled) {
			t.Fatalf("a bad pointer in shard-2 failed the join with %v", err)
		}
	}
	for _, e := range m.Shards {
		if left, _ := filepath.Glob(filepath.Join(e.Dir, "arena-*.seg")); len(left) != 0 {
			t.Fatalf("temp arenas left behind: %v", left)
		}
	}
}

// TestShardRouterLeaksNoGoroutines checks the pool a nil-Pool join makes
// is closed on every exit: after a successful join, a join that fails
// because no shard's temp arena can be created, a removal and
// Close, the goroutine count returns to where it started.
func TestShardRouterLeaksNoGoroutines(t *testing.T) {
	_, m, want := buildSharded(t, 900, 2, 3)
	before := runtime.NumGoroutine()
	r, err := Open(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := r.Run(mstore.JoinRequest{Algorithm: join.HybridHash, MRproc: 1 << 20}); err != nil || st != want {
		t.Fatalf("join: %+v, %v; want %+v", st, err, want)
	}
	// A TmpDir that is a regular file fails every shard's Run.
	tmp := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(tmp, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(mstore.JoinRequest{Algorithm: join.Grace, MRproc: 1 << 20, TmpDir: tmp}); err == nil {
		t.Fatal("join under a TmpDir that is a regular file succeeded")
	}
	if err := r.RemoveShard(context.Background(), "shard-0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before Open", n, before)
	}
}

// TestShardMapIgnoresWorkersPerShard checks a map written when shards
// owned pools and the ring's vnode count was configurable still loads:
// encoding/json drops the retired "workersPerShard" and "replicas" keys
// and the rest of the map is unchanged.
func TestShardMapIgnoresWorkersPerShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.json")
	old := `{
  "schema": "mmjoin-shardmap/v1",
  "replicas": 32,
  "workersPerShard": 2,
  "shards": [
    {"id": "a", "dir": "/x/a", "d": 4},
    {"id": "b", "dir": "/x/b", "d": 4}
  ]
}
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMap(path)
	if err != nil {
		t.Fatal(err)
	}
	want := &Map{Schema: MapSchema, Shards: []Entry{
		{ID: "a", Dir: "/x/a", D: 4},
		{ID: "b", Dir: "/x/b", D: 4},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("old map loaded as %+v, want %+v", got, want)
	}
	// Written back, the map carries neither retired key.
	if err := WriteMap(path, got); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"replicas"`, `"workersPerShard"`} {
		if strings.Contains(string(b), key) {
			t.Errorf("rewritten map still has %s:\n%s", key, b)
		}
	}
}
