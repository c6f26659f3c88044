package mstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
)

// zipfDB rewrites the db's R pointers into a Zipf-like worst case: one
// hot S key (partition 0, index 0) owns half of all references, the
// other half spreads deterministically over every partition. This is
// the workload the planner's memory estimate gets most wrong — one
// Grace bucket holds ~50% of R no matter what K says.
func zipfDB(t testing.TB, nr int) *DB {
	t.Helper()
	db := makeDB(t, nr)
	hot := SPtr{Part: 0, Off: db.S[0].PtrAt(0)}
	n, u := 0, 0
	for _, ri := range db.R {
		for x := 0; x < ri.Count(); x++ {
			if n%2 == 0 {
				EncodeSPtr(ri.Object(x), hot)
			} else {
				part := u % db.D
				rel := db.S[part]
				EncodeSPtr(ri.Object(x), SPtr{
					Part: uint32(part), Off: rel.PtrAt(u % rel.Count()),
				})
				u++
			}
			n++
		}
	}
	return db
}

// skewGrants are the per-partition grants the skew tests sweep: one no
// structure could fit (64 B, which clamps K to one bucket per
// reference), a tight one (32 KiB) and none at all.
var skewGrants = []int64{64, 32 << 10, 0}

// TestSkewGrantBoundedGraceHybrid: under the hot-key workload, where
// one Grace bucket holds half of R whatever K says, Grace and hybrid
// hash produce the ground truth at every grant and worker count. The
// grant reaches them only as K and the hybrid-hash resident prefix: the
// hot bucket is ordered and probed in place in the arena like any
// other, so no grant is too small, nothing is metered, and no retired
// counter moves.
func TestSkewGrantBoundedGraceHybrid(t *testing.T) {
	db := zipfDB(t, 8000)
	want := db.ExpectedStats()
	for _, alg := range []join.Algorithm{join.Grace, join.HybridHash} {
		for _, w := range []int{1, 4} {
			p := newPool(t, w)
			for _, mrproc := range skewGrants {
				tel := &JoinTelemetry{}
				st, err := db.Run(JoinRequest{
					Algorithm: alg, Pool: p, MRproc: mrproc, Telemetry: tel,
					TmpDir: filepath.Join(t.TempDir(), "tmp"),
				})
				if err != nil {
					t.Fatalf("%v workers=%d mrproc=%d: %v", alg, w, mrproc, err)
				}
				if st != want {
					t.Fatalf("%v workers=%d mrproc=%d: %+v, want %+v", alg, w, mrproc, st, want)
				}
				retiredZero(t, tel)
			}
		}
	}
}

// TestSkewZipfCorpusAllAlgorithms is the conformance corpus: the
// hot-key workload across all four algorithms × worker counts × grants,
// each result bit-identical to the pointer-walk ground truth. Under
// -race it additionally exercises concurrent claims on the arena and
// concurrent in-place ordering of its extents.
func TestSkewZipfCorpusAllAlgorithms(t *testing.T) {
	db := zipfDB(t, 6000)
	want := db.ExpectedStats()
	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}
	for _, alg := range algs {
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			p := newPool(t, w)
			for _, mrproc := range skewGrants {
				st, err := db.Run(JoinRequest{
					Algorithm: alg, Pool: p, MRproc: mrproc,
					TmpDir: filepath.Join(t.TempDir(), fmt.Sprintf("%v-%d", alg, w)),
				})
				if err != nil {
					t.Fatalf("%v workers=%d mrproc=%d: %v", alg, w, mrproc, err)
				}
				if st != want {
					t.Fatalf("%v workers=%d mrproc=%d: %+v, want %+v", alg, w, mrproc, st, want)
				}
			}
		}
	}
}

// TestSkewGraceHeapFlatInR counts the heap a Grace join allocates
// (runtime.MemStats.TotalAlloc, least of three joins) on the hot-key
// store at K=4, for 8,000 and for 80,000 objects. Half of R lands in one
// bucket, and a probe table for it took 16 B or more per reference. The
// staged references live in the mapped arena instead, ordered in place,
// so ten times the references may add less than one heap byte per added
// object — what is left grows with the morsel count only. One worker,
// because each worker that runs a scan morsel allocates its own scratch
// once, and with more than one that depends on the schedule.
func TestSkewGraceHeapFlatInR(t *testing.T) {
	p := exec.NewPool(1)
	defer p.Close()
	heap := func(nr int) uint64 {
		db := zipfDB(t, nr)
		want := db.ExpectedStats()
		least := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			st, err := db.Run(JoinRequest{Algorithm: join.Grace, K: 4, Pool: p})
			runtime.ReadMemStats(&ms)
			if err != nil {
				t.Fatal(err)
			}
			if st != want {
				t.Fatalf("%d objects: %+v, want %+v", nr, st, want)
			}
			least = min(least, ms.TotalAlloc-before)
		}
		return least
	}
	small, large := heap(8000), heap(80000)
	if large > small+72000 {
		t.Fatalf("a Grace join allocates %d heap bytes at 8,000 objects and %d at 80,000: the heap grows with |R|", small, large)
	}
	t.Logf("heap per Grace join: %d B at 8,000 objects, %d B at 80,000", small, large)
}

// TestSkewConcurrentDefaultTmpDirGrace is the regression for the shared
// default temp directory: two concurrent Grace joins with TmpDir left
// empty used to write the same <db>/tmp/gr_j_b.seg files and corrupt
// each other; each join's own arena file keeps them disjoint and exact.
func TestSkewConcurrentDefaultTmpDirGrace(t *testing.T) {
	db := zipfDB(t, 4000)
	want := db.ExpectedStats()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := db.Run(JoinRequest{Algorithm: join.Grace, K: 4})
			if err != nil {
				t.Errorf("concurrent grace: %v", err)
				return
			}
			if st != want {
				t.Errorf("concurrent grace: %+v, want %+v", st, want)
			}
		}()
	}
	wg.Wait()
	// The per-call arenas are deleted on return.
	ents, err := os.ReadDir(db.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "arena-") {
			t.Fatalf("per-call temp arena %s left behind", e.Name())
		}
	}
}

// TestSkewEmptyBucketsCreateNoFiles: with every reference in partition
// 0, the other partitions' buckets are measured empty and must cost
// nothing — they are zero-length extents of the one arena, which the
// layout read off the histogram sizes at exactly the staged references
// (the former eager D×K creation opened a file for each of them).
func TestSkewEmptyBucketsCreateNoFiles(t *testing.T) {
	db := skewDB(t, 4000) // every reference → partition 0
	want := db.ExpectedStats()
	const k = 8
	tel := &JoinTelemetry{}
	cfg := histOf(t, db).grace(k)
	var mu sync.Mutex
	var starts []int
	cfg.finish = func(s *stagedRun, w, part int, refs []ref) error {
		mu.Lock()
		starts = s.starts
		mu.Unlock()
		return s.orderProbe(w, part, refs)
	}
	r, done := newTestRun(t, db, 2, tel)
	err := stagedJob(r, cfg)
	arenaRefs := len(r.tmp.refs)
	done()
	if err != nil {
		t.Fatal(err)
	}
	if st := r.stats.total(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if files := tel.TempFiles.Load(); files != 1 {
		t.Fatalf("%d temp files, want the one arena (eager creation would make %d)", files, db.D*k)
	}
	if len(starts) != db.D*k+1 || starts[k] != 4000 || starts[db.D*k] != 4000 {
		t.Fatalf("extent layout %v: want all 4000 references in row 0's %d buckets and zero-length extents after them", starts, k)
	}
	if arenaRefs != 4000 {
		t.Fatalf("arena holds %d references, want 4000: the layout sizes it at the staged references", arenaRefs)
	}
}

// TestSkewExplicitTmpDirStillWorks: an explicit TmpDir keeps working,
// and survives the join.
func TestSkewExplicitTmpDirStillWorks(t *testing.T) {
	db := zipfDB(t, 1000)
	want := db.ExpectedStats()
	tmp := filepath.Join(t.TempDir(), "mine")
	st, err := db.Run(JoinRequest{Algorithm: join.HybridHash, K: 2, MRproc: 4096, TmpDir: tmp})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("explicit TmpDir removed behind the caller's back: %v", err)
	}
}

// TestSkewSharedPoolBoundedJoins: bounded skewed joins on one shared
// pool — the ordering recursion runs inline in finish tasks and hands
// large windows back to the pool, so this must not deadlock the
// work-stealing pool — and results stay exact.
func TestSkewSharedPoolBoundedJoins(t *testing.T) {
	db := zipfDB(t, 4000)
	want := db.ExpectedStats()
	pool := exec.NewPool(2)
	defer pool.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := db.Run(JoinRequest{
				Algorithm: join.Grace, K: 4, MRproc: 8 << 10, Pool: pool,
				TmpDir: filepath.Join(t.TempDir(), fmt.Sprintf("g%d", g)),
			})
			if err != nil {
				t.Errorf("join %d: %v", g, err)
				return
			}
			if st != want {
				t.Errorf("join %d: %+v, want %+v", g, st, want)
			}
		}(g)
	}
	wg.Wait()
}
