package mstore

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
)

// TestJoinStatsDeterministicAcrossWorkerCounts is the property the
// morsel layer promises: Pairs and Signature are bit-identical at every
// worker count because they fold as commutative sums, no matter how the
// work-stealing schedule interleaves morsels. Run under -race it also
// exercises the concurrent extent claims and per-worker accumulators.
func TestJoinStatsDeterministicAcrossWorkerCounts(t *testing.T) {
	db := makeDB(t, 4000)
	want := db.ExpectedStats()
	counts := []int{1, 2, db.D, runtime.GOMAXPROCS(0)}
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash} {
		for _, w := range counts {
			st, err := db.Run(JoinRequest{
				// 19,200 of a partition's 1000·64 S bytes: 0.3 resident.
				Algorithm: alg, K: 5, MRproc: 19200, Pool: newPool(t, w),
				TmpDir: filepath.Join(t.TempDir(), "tmp"),
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", alg, w, err)
			}
			if st != want {
				t.Fatalf("%v workers=%d: stats %+v, want %+v", alg, w, st, want)
			}
		}
	}
}

// TestJoinSharedPoolMatchesEphemeral runs joins on one shared pool
// concurrently and checks the results stay exact while total occupancy
// never exceeds the pool size.
func TestJoinSharedPoolMatchesEphemeral(t *testing.T) {
	db := makeDB(t, 3000)
	want := db.ExpectedStats()
	pool := exec.NewPool(2)
	defer pool.Close()
	var wg sync.WaitGroup
	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := db.Run(JoinRequest{
				Algorithm: algs[g%len(algs)], K: 3, Pool: pool,
				TmpDir: filepath.Join(t.TempDir(), fmt.Sprintf("g%d", g)),
			})
			if err != nil {
				t.Errorf("join %d: %v", g, err)
				return
			}
			if st != want {
				t.Errorf("join %d: stats %+v, want %+v", g, st, want)
			}
		}(g)
	}
	wg.Wait()
	if peak := pool.Stats().PeakBusy; peak > 2 {
		t.Fatalf("peak pool occupancy %d exceeds 2", peak)
	}
}

// skewDB rewrites every R pointer in place to reference partition 0, the
// worst case for temp-relation sizing: all of R's references land in one
// partition's files.
func skewDB(t *testing.T, nr int) *DB {
	t.Helper()
	db := makeDB(t, nr)
	s0 := db.S[0]
	for _, ri := range db.R {
		for x := 0; x < ri.Count(); x++ {
			EncodeSPtr(ri.Object(x), SPtr{Part: 0, Off: s0.PtrAt(x % s0.Count())})
		}
	}
	return db
}

// TestNestedLoopsSkewHeavy: with every reference pointing at S0, the
// measured distribution concentrates all staged references in row 0 and
// leaves every other destination empty. A measured-empty destination
// must cost nothing: the layout read off the histogram sizes the join's
// one arena at exactly the staged references — 16 bytes each — so the empty
// destinations are zero-length extents of it, not files or slots (the
// former |Ri| sizing wasted (D−1)·|Ri| slots per partition). The joins
// must still be exact.
func TestNestedLoopsSkewHeavy(t *testing.T) {
	db := skewDB(t, 4000)
	want := db.ExpectedStats()
	if want.Pairs != 4000 {
		t.Fatalf("skew db has %d pairs", want.Pairs)
	}
	// R0's references are its own partition's and join during the
	// nested-loops scan; sort-merge and Grace stage all of R.
	staged := map[string]int{"nested-loops": 4000 - db.R[0].Count(), "sort-merge": 4000, "grace": 4000}
	h := histOf(t, db)
	for name, cfg := range map[string]staging{"nested-loops": h.nestedLoops(), "sort-merge": h.grace(h.sortSplits(2)), "grace": h.grace(4)} {
		var tel JoinTelemetry
		var mu sync.Mutex
		rows := map[int]int{} // row → references its non-empty destinations hold
		finish := cfg.finish
		cfg.finish = func(s *stagedRun, w, part int, refs []ref) error {
			mu.Lock()
			rows[part] += len(refs)
			mu.Unlock()
			return finish(s, w, part, refs)
		}
		r, done := newTestRun(t, db, 2, &tel)
		err := stagedJob(r, cfg)
		arenaRefs, arenaBytes := len(r.tmp.refs), r.tmp.seg.Size()
		done()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := r.stats.total(); st != want {
			t.Fatalf("%s: stats %+v, want %+v", name, st, want)
		}
		if got := tel.TempFiles.Load(); got != 1 {
			t.Fatalf("%s: %d temp files, want the one arena", name, got)
		}
		if arenaRefs != staged[name] || arenaBytes != headerSize+int64(staged[name])*refBytes {
			t.Fatalf("%s: arena holds %d references in %d bytes, want %d references × 16 + header",
				name, arenaRefs, arenaBytes, staged[name])
		}
		if len(rows) != 1 || rows[0] != staged[name] {
			t.Fatalf("%s: non-empty destinations by row %v, want only row 0 with %d references", name, rows, staged[name])
		}
	}
}

// TestNestedLoopsBeyondOnePassFanout: with more partitions than one
// scan fans out to, neighbouring origins share a nested-loops
// destination and the join stays exact.
func TestNestedLoopsBeyondOnePassFanout(t *testing.T) {
	db, err := CreateDB(filepath.Join(t.TempDir(), "db"), 300, 3000, 3000, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Run(JoinRequest{Algorithm: join.NestedLoops})
	if err != nil {
		t.Fatal(err)
	}
	if want := db.ExpectedStats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestRunCancelledContext: a pre-cancelled request context aborts the
// join without executing it.
func TestRunCancelledContext(t *testing.T) {
	db := makeDB(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.Run(JoinRequest{Algorithm: join.SortMerge, Ctx: ctx,
		TmpDir: filepath.Join(t.TempDir(), "tmp")})
	if err == nil {
		t.Fatal("cancelled join reported success")
	}
}
