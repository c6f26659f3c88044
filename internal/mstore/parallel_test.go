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
// exercises the concurrent appenders and per-worker accumulators.
func TestJoinStatsDeterministicAcrossWorkerCounts(t *testing.T) {
	db := makeDB(t, 4000)
	want := db.ExpectedStats()
	counts := []int{1, 2, db.D, runtime.GOMAXPROCS(0)}
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash} {
		for _, w := range counts {
			st, err := db.Run(JoinRequest{
				Algorithm: alg, K: 5, ResidentFrac: 0.3, Workers: w,
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
// measured distribution concentrates all temporary RP<i,0> files at full
// partition size and leaves the other D−2 per partition empty — the
// former |Ri| sizing wasted (D−1)·|Ri| slots per partition. The joins
// must still be exact.
func TestNestedLoopsSkewHeavy(t *testing.T) {
	db := skewDB(t, 4000)
	want := db.ExpectedStats()
	if want.Pairs != 4000 {
		t.Fatalf("skew db has %d pairs", want.Pairs)
	}
	// The counting pass measures the distribution, so only the non-empty
	// destinations materialize: RP<i,0> for i ≠ 0 (R0's references are
	// its own partition's and join during the scan), RS0 plus its sorted
	// copy, and Grace's 4 buckets of S0.
	files := map[join.Algorithm]int64{join.NestedLoops: int64(db.D - 1), join.SortMerge: 2, join.Grace: 4}
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace} {
		var tel JoinTelemetry
		st, err := db.Run(JoinRequest{Algorithm: alg, K: 4, Telemetry: &tel, TmpDir: filepath.Join(t.TempDir(), alg.String())})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if st != want {
			t.Fatalf("%v: stats %+v, want %+v", alg, st, want)
		}
		if got := tel.TempFiles.Load(); got != files[alg] {
			t.Fatalf("%v: %d temp files, want %d", alg, got, files[alg])
		}
	}
}

// TestAppenderGrowsUnderConcurrency drives a deliberately undersized
// relation through concurrent appends and checks every object survives
// the in-place growth (which remaps the segment under a write lock).
func TestAppenderGrowsUnderConcurrency(t *testing.T) {
	seg, err := Create(filepath.Join(t.TempDir(), "a.seg"), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	rel, err := CreateRelation(seg, 32, 4) // 4 slots for 4000 appends
	if err != nil {
		t.Fatal(err)
	}
	ap := NewAppender(rel)
	const n, writers = 4000, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obj := make([]byte, 32)
			for x := 0; x < n/writers; x++ {
				EncodeSPtr(obj, SPtr{Part: uint32(w), Off: Ptr(x)})
				if err := ap.Append(obj); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ap.Seal()
	if rel.Count() != n {
		t.Fatalf("count %d, want %d", rel.Count(), n)
	}
	seen := make(map[SPtr]bool, n)
	for x := 0; x < n; x++ {
		seen[DecodeSPtr(rel.Object(x))] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct objects, want %d (lost writes during growth)", len(seen), n)
	}
}

// TestGrowCapacityRejectsNonTopAllocation: growth is only legal while
// the relation's data area is the segment's top allocation.
func TestGrowCapacityRejectsNonTopAllocation(t *testing.T) {
	seg, err := Create(filepath.Join(t.TempDir(), "b.seg"), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	rel, err := CreateRelation(seg, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Alloc(64); err != nil { // something now sits above the data area
		t.Fatal(err)
	}
	if err := rel.GrowCapacity(100); err == nil {
		t.Fatal("grow of a buried relation accepted")
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
