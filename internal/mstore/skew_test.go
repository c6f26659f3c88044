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
	"mmjoin/internal/radix"
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

// TestSkewGrantBoundedGraceHybrid is the tentpole invariant: under a
// hot-key workload with a deliberately undersized grant, Grace and
// hybrid-hash complete with bit-identical Pairs/Signature vs the
// unbounded baseline, while the measured peak of counted probe-table
// bytes never exceeds the grant D·MRproc. Grace's hot bucket's table
// alone (tableBytesFor(4000) ≈ 158 KiB: 8192 slots · 12 B + 4000 refs ·
// 16 B) cannot fit the 32 KiB grant, so the join must restage it and
// ultimately stream the hot key; hybrid-hash keeps the hot key (index 0)
// in the resident prefix its MRproc derives, so it owes only the bound.
func TestSkewGrantBoundedGraceHybrid(t *testing.T) {
	db := zipfDB(t, 8000)
	want := db.ExpectedStats()
	const grant = 32 << 10
	mrproc := int64(grant / db.D)

	for _, alg := range []join.Algorithm{join.Grace, join.HybridHash} {
		for _, w := range []int{1, 4} {
			base, err := db.Run(JoinRequest{
				Algorithm: alg, K: 4, Workers: w,
				TmpDir: filepath.Join(t.TempDir(), "base"),
			})
			if err != nil {
				t.Fatalf("%v unbounded: %v", alg, err)
			}
			if base != want {
				t.Fatalf("%v unbounded: %+v, want %+v", alg, base, want)
			}

			tel := &JoinTelemetry{}
			st, err := db.Run(JoinRequest{
				Algorithm: alg, K: 4, Workers: w,
				MRproc: mrproc, Telemetry: tel,
				TmpDir: filepath.Join(t.TempDir(), "bounded"),
			})
			if err != nil {
				t.Fatalf("%v bounded: %v", alg, err)
			}
			if st != want {
				t.Fatalf("%v bounded workers=%d: %+v, want %+v", alg, w, st, want)
			}
			if peak := tel.PeakTableBytes.Load(); peak > grant {
				t.Fatalf("%v workers=%d: peak table bytes %d exceed grant %d", alg, w, peak, grant)
			}
			if alg != join.Grace {
				continue
			}
			if tel.Restages.Load() < 1 {
				t.Errorf("%v workers=%d: oversized bucket never restaged", alg, w)
			}
			if tel.StreamProbes.Load() < 1 {
				t.Errorf("%v workers=%d: hot-key bucket never streamed", alg, w)
			}
		}
	}
}

// TestSkewZipfCorpusAllAlgorithms is the conformance corpus: the
// hot-key workload across all four algorithms × worker counts, each
// result bit-identical to the pointer-walk ground truth. Under -race it
// additionally exercises concurrent appends, restages, and the shared
// memory limiter.
func TestSkewZipfCorpusAllAlgorithms(t *testing.T) {
	db := zipfDB(t, 6000)
	want := db.ExpectedStats()
	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}
	for _, alg := range algs {
		for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			tel := &JoinTelemetry{}
			st, err := db.Run(JoinRequest{
				Algorithm: alg, K: 3, Workers: w,
				MRproc: 12 << 10, Telemetry: tel,
				TmpDir: filepath.Join(t.TempDir(), fmt.Sprintf("%v-%d", alg, w)),
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", alg, w, err)
			}
			if st != want {
				t.Fatalf("%v workers=%d: %+v, want %+v", alg, w, st, want)
			}
			if peak := tel.PeakTableBytes.Load(); peak > 48<<10 {
				t.Fatalf("%v workers=%d: peak %d over grant", alg, w, peak)
			}
		}
	}
}

// TestSkewRenegotiationGrowsGrant: a negotiator with spare memory lets
// the oversized bucket's table build in place of restaging, and every
// renegotiated byte is given back when the join returns.
func TestSkewRenegotiationGrowsGrant(t *testing.T) {
	db := zipfDB(t, 4000)
	want := db.ExpectedStats()
	neg := &fakeNegotiator{spare: 1 << 20}
	tel := &JoinTelemetry{}
	st, err := db.Run(JoinRequest{
		Algorithm: join.Grace, K: 4, MRproc: 4 << 10,
		Telemetry: tel, Negotiator: neg,
		TmpDir: filepath.Join(t.TempDir(), "tmp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if tel.Renegotiations.Load() < 1 {
		t.Fatal("under-granted join never renegotiated")
	}
	if tel.Restages.Load() != 0 {
		t.Errorf("restaged %d times despite available renegotiation", tel.Restages.Load())
	}
	neg.mu.Lock()
	defer neg.mu.Unlock()
	if neg.out != 0 {
		t.Fatalf("%d renegotiated bytes never given back", neg.out)
	}
	if peak := tel.PeakTableBytes.Load(); peak > 16<<10+tel.ExtraGrantBytes.Load() {
		t.Fatalf("peak %d exceeds grant+extra %d", peak, 16<<10+tel.ExtraGrantBytes.Load())
	}
}

// fakeNegotiator grants growth from a fixed spare pool.
type fakeNegotiator struct {
	mu    sync.Mutex
	spare int64
	out   int64
}

func (f *fakeNegotiator) TryGrow(bytes int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if bytes > f.spare-f.out {
		return false
	}
	f.out += bytes
	return true
}

func (f *fakeNegotiator) GiveBack(bytes int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.out -= bytes
}

// TestSkewConcurrentDefaultTmpDirGrace is the regression for the shared
// default temp directory: two concurrent Grace joins with TmpDir left
// empty used to write the same <db>/tmp/gr_j_b.seg files and corrupt
// each other; per-call MkdirTemp keeps them disjoint and exact.
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
	// The per-call directories are removed on return.
	ents, err := os.ReadDir(db.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Fatalf("per-call temp dir %s left behind", e.Name())
		}
	}
}

// TestSkewEmptyBucketsCreateNoFiles: with every reference in partition
// 0, the other partitions' buckets are measured empty and must cost
// nothing — they are zero-length extents of the one arena, which the
// count pass sized at exactly the staged references (the former eager
// D×K creation opened a file for each of them).
func TestSkewEmptyBucketsCreateNoFiles(t *testing.T) {
	db := skewDB(t, 4000) // every reference → partition 0
	want := db.ExpectedStats()
	const k = 8
	tel := &JoinTelemetry{}
	cfg := db.grace(k)
	var mu sync.Mutex
	var starts []int
	cfg.finish = func(s *stagedRun, w, part int, refs []ref) error {
		mu.Lock()
		starts = s.starts
		mu.Unlock()
		return s.tableProbe(w, part, refs)
	}
	r, done := newTestRun(t, db, 2, 0, tel)
	err := r.staged(cfg)
	arenaBytes := r.tmp.seg.Size()
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
	if want := headerSize + 4000*refBytes; arenaBytes != want {
		t.Fatalf("arena is %d bytes, want %d: the count pass sizes it at the staged references", arenaBytes, want)
	}
}

// TestRankBucketBoundaries pins the int64 bucket math: the former
// int-typed idx*k product overflows 32-bit ints at realistic sizes
// (10M-object partition × k=512 ≈ 2^32.3).
func TestRankBucketBoundaries(t *testing.T) {
	cases := []struct {
		idx, k, n int
		want      int
	}{
		{0, 4, 100, 0},
		{99, 4, 100, 3},
		{0, 1, 1, 0},
		{math.MaxInt32 - 1, 1 << 20, math.MaxInt32, 1<<20 - 1},
		{math.MaxInt32 / 2, 1 << 20, math.MaxInt32, 1<<19 - 1},
		{10_000_000 - 1, 512, 10_000_000, 511},
		{0, 512, 10_000_000, 0},
	}
	for _, c := range cases {
		if got := rankBucket(c.idx, c.k, c.n); got != c.want {
			t.Errorf("rankBucket(%d, %d, %d) = %d, want %d", c.idx, c.k, c.n, got, c.want)
		}
	}
	// Monotone and in-range over a sweep.
	prev := 0
	for idx := 0; idx < 1000; idx++ {
		b := rankBucket(idx, 7, 1000)
		if b < prev || b < 0 || b >= 7 {
			t.Fatalf("rankBucket not monotone in range at idx=%d: %d after %d", idx, b, prev)
		}
		prev = b
	}
}

// TestSkewStreamProbeDegenerateGrant: under a grant no table fits (the
// smallest is 112 bytes) every bucket restages down to single keys and
// joins them in extent order — exactly, and without reserving a byte:
// tables are the only thing the limiter meters.
func TestSkewStreamProbeDegenerateGrant(t *testing.T) {
	db := zipfDB(t, 2000)
	want := db.ExpectedStats()
	tel := &JoinTelemetry{}
	st, err := db.Run(JoinRequest{
		Algorithm: join.Grace, K: 2, MRproc: 16, Telemetry: tel,
		TmpDir: filepath.Join(t.TempDir(), "tmp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if tel.StreamProbes.Load() < 1 {
		t.Fatal("no bucket streamed under a 64-byte grant")
	}
	if peak := tel.PeakTableBytes.Load(); peak != 0 {
		t.Fatalf("reserved %d bytes under a 64-byte grant that fits no table", peak)
	}
}

// TestSkewProbeLadder pins the two rungs below "the table fits" on
// buckets built for them, under the same 64-byte grant: a bucket naming
// two S objects restages — once, into two single-key sub-buckets; it is
// never streamed whole — and a bucket naming one S object streams
// without a restage. Neither reserves a byte, both are exact.
func TestSkewProbeLadder(t *testing.T) {
	for _, c := range []struct {
		keys              int
		restages, streams int64
	}{{keys: 2, restages: 1, streams: 2}, {keys: 1, restages: 0, streams: 1}} {
		db := makeDB(t, 400)
		s0 := db.S[0]
		n := 0
		for _, ri := range db.R {
			for x := 0; x < ri.Count(); x++ {
				EncodeSPtr(ri.Object(x), SPtr{Part: 0, Off: s0.PtrAt(n % c.keys * (s0.Count() - 1))})
				n++
			}
		}
		tel := &JoinTelemetry{}
		st, err := runStaged(t, db, db.grace(1), radix.Bits, 2, 64, tel)
		if err != nil {
			t.Fatal(err)
		}
		if want := db.ExpectedStats(); st != want {
			t.Errorf("%d keys: stats %+v, want %+v", c.keys, st, want)
		}
		if r, s := tel.Restages.Load(), tel.StreamProbes.Load(); r != c.restages || s != c.streams {
			t.Errorf("%d keys: %d restages and %d stream probes, want %d and %d", c.keys, r, s, c.restages, c.streams)
		}
		if peak := tel.PeakTableBytes.Load(); peak != 0 {
			t.Errorf("%d keys: reserved %d bytes for no table", c.keys, peak)
		}
	}
}

// TestMemLimiterConcurrentReservations hammers one limiter from many
// goroutines and checks the accounting balances and the peak honors the
// budget.
func TestMemLimiterConcurrentReservations(t *testing.T) {
	tel := &JoinTelemetry{}
	lim := newMemLimiter(1000, nil, tel)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !lim.reserve(100) {
					t.Error("fitting reservation denied")
					return
				}
				lim.release(100)
			}
		}()
	}
	wg.Wait()
	if lim.used != 0 {
		t.Fatalf("leaked %d reserved bytes", lim.used)
	}
	if peak := tel.PeakTableBytes.Load(); peak > 1000 {
		t.Fatalf("peak %d over budget 1000", peak)
	}
	if lim.reserve(1001) {
		t.Fatal("impossible reservation accepted")
	}
	// An unbounded limiter accounts but never denies.
	free := newMemLimiter(0, nil, nil)
	if !free.reserve(1 << 40) {
		t.Fatal("unbounded limiter denied")
	}
	free.release(1 << 40)
}

// TestSkewExplicitTmpDirStillWorks: an explicit caller-unique TmpDir
// keeps working (and is the caller's to clean up).
func TestSkewExplicitTmpDirStillWorks(t *testing.T) {
	db := zipfDB(t, 1000)
	want := db.ExpectedStats()
	tmp := filepath.Join(t.TempDir(), "mine")
	st, err := db.Run(JoinRequest{Algorithm: join.HybridHash, K: 2, TmpDir: tmp})
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
// pool — restage recursion runs inline in probe tasks, so this must not
// deadlock the work-stealing pool — and results stay exact.
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
