package mstore

import (
	"context"
	"encoding/binary"
	"errors"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/radix"
)

// segFiles lists the temporary segment files left under dir.
func segFiles(t testing.TB, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestKernelSignatureGrid is the property grid over what the collapsed
// executor can vary: six operators × workers {1, 2, 4} × corpus
// {uniform, Zipf hot-key} × K {1, 37, 600} × MRproc {unbounded, 16 KiB:
// a 64 KiB grant}.
// Every point must produce Pairs/Signature bit-identical to the store's
// independently computed ground truth, keep the peak of counted probe
// memory within grant + renegotiated bytes, create at most 2·D temp
// files (the index operators none), and leave an explicit TmpDir
// without a single temporary segment — the one temp arena is the
// behaviour under test. K=600 partitions in two passes; deeper pass
// counts are TestKernelMultiPassDeep's job.
func TestKernelSignatureGrid(t *testing.T) {
	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace,
		join.HybridHash, join.IndexNL, join.IndexMerge}
	corpora := map[string]func(testing.TB, int) *DB{
		"uniform": makeDB,
		"zipf":    zipfDB,
	}
	for name, mk := range corpora {
		t.Run(name, func(t *testing.T) {
			db := indexedDB(t, mk(t, 6000))
			want := db.ExpectedStats()
			tmp := filepath.Join(t.TempDir(), "tmp")
			for _, alg := range algs {
				for _, w := range []int{1, 2, 4} {
					for _, k := range []int{1, 37, 600} {
						for _, mrproc := range []int64{0, 16 << 10} {
							grant := mrproc * int64(db.D)
							// K only reaches the bucketed joins; run the
							// others once per worker/grant point.
							if alg != join.Grace && alg != join.HybridHash && k != 37 {
								continue
							}
							var tel JoinTelemetry
							got, err := db.Run(JoinRequest{
								Algorithm: alg, K: k, Workers: w,
								MRproc: mrproc, Telemetry: &tel, TmpDir: tmp,
							})
							if err != nil {
								t.Fatalf("%v k=%d w=%d grant=%d: %v", alg, k, w, grant, err)
							}
							if got != want {
								t.Fatalf("%v k=%d w=%d grant=%d: got %+v want %+v", alg, k, w, grant, got, want)
							}
							if bound := grant + tel.ExtraGrantBytes.Load(); grant > 0 && tel.PeakTableBytes.Load() > bound {
								t.Fatalf("%v k=%d w=%d: peak %d exceeds grant %d",
									alg, k, w, tel.PeakTableBytes.Load(), bound)
							}
							staging := alg != join.IndexNL && alg != join.IndexMerge
							if files := tel.TempFiles.Load(); files > int64(2*db.D) || !staging && files != 0 {
								t.Fatalf("%v k=%d w=%d grant=%d: %d temp files", alg, k, w, grant, files)
							}
							if left := segFiles(t, tmp); len(left) != 0 {
								t.Fatalf("%v k=%d w=%d grant=%d: temporaries left behind: %v", alg, k, w, grant, left)
							}
						}
					}
				}
			}
		})
	}
}

// cancelAfter is a context that cancels itself the n-th time the pool
// consults it (once before every morsel), which lands the cancellation
// deterministically inside a chosen pass.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestKernelCancelMidScanLeavesNoTemporaries cancels each staging
// operator after its count pass (8 morsels) and inside its scan pass —
// the arena exists and is half written — and demands the explicit
// TmpDir is still emptied.
func TestKernelCancelMidScanLeavesNoTemporaries(t *testing.T) {
	db := makeDB(t, 20000) // 4 partitions × 5000 objects: 2 morsels each
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash} {
		ctx := &cancelAfter{}
		ctx.Context, ctx.cancel = context.WithCancel(context.Background())
		ctx.left.Store(12)
		tmp := filepath.Join(t.TempDir(), "tmp")
		var tel JoinTelemetry
		_, err := db.Run(JoinRequest{
			// 96,000 of a partition's 5000·64 S bytes: 0.3 resident.
			Algorithm: alg, K: 300, MRproc: 96000, Workers: 2,
			Ctx: ctx, Telemetry: &tel, TmpDir: tmp,
		})
		if err == nil {
			t.Fatalf("%v: cancelled join reported success", alg)
		}
		if tel.TempFiles.Load() == 0 {
			t.Fatalf("%v: cancelled before any temporary existed; the test no longer lands mid-scan", alg)
		}
		if left := segFiles(t, tmp); len(left) != 0 {
			t.Fatalf("%v: temporaries left behind after cancel: %v", alg, left)
		}
	}
}

// TestKernelCancelInsideRefineLeavesNoTemporaries cancels a multi-pass
// join from inside refine: the first final bucket to reach its finish —
// its group partitioned in place, its siblings still waiting — cancels
// the context, so the remaining groups' tasks are dropped with the
// arena fully written and partly permuted.
func TestKernelCancelInsideRefineLeavesNoTemporaries(t *testing.T) {
	db := makeDB(t, 20000)
	for name, cfg := range map[string]staging{"grace": db.grace(300), "hybrid-hash": db.hybridHash(300, 0.3)} {
		var tel JoinTelemetry
		r, done := newTestRun(t, db, 2, 0, &tel)
		ctx, cancel := context.WithCancel(r.ctx)
		r.ctx, r.fanBits = ctx, 4
		probe := cfg.finish
		cfg.finish = func(s *stagedRun, w, part int, refs []ref) error {
			cancel()
			return probe(s, w, part, refs)
		}
		err := r.staged(cfg)
		done()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: join cancelled inside refine returned %v", name, err)
		}
		if tel.TempFiles.Load() != 1 || tel.RadixPasses.Load() != 3 {
			t.Fatalf("%s: %d temp files, %d passes: the test no longer lands inside a refine",
				name, tel.TempFiles.Load(), tel.RadixPasses.Load())
		}
	}
}

// newTestRun builds a joinRun over a fresh TmpDir the way DB.Run does,
// for tests that drive the skeleton directly: to narrow the per-pass
// fan-out or wrap a finish — the things no request can do — and to look
// at the arena before it is unlinked. The returned teardown closes the
// arena, the limiter and the pool and fails the test if a temporary is
// left behind.
func newTestRun(t testing.TB, db *DB, workers int, grant int64, tel *JoinTelemetry) (*joinRun, func()) {
	t.Helper()
	p := exec.NewPool(workers)
	lim := newMemLimiter(grant, nil, tel)
	tmp := t.TempDir()
	r := newJoinRun(context.Background(), db, p, lim, tmp)
	return r, func() {
		t.Helper()
		r.tmp.close()
		lim.close()
		p.Close()
		if left := segFiles(t, tmp); len(left) != 0 {
			t.Fatalf("temporaries left behind: %v", left)
		}
	}
}

// runStaged runs one staging configuration at the given fan-out.
func runStaged(t *testing.T, db *DB, cfg staging, fanBits, workers int, grant int64, tel *JoinTelemetry) (JoinStats, error) {
	t.Helper()
	r, done := newTestRun(t, db, workers, grant, tel)
	defer done()
	r.fanBits = fanBits
	err := r.staged(cfg)
	return r.stats.total(), err
}

// TestKernelMultiPassDeep drives the partitioning through three radix
// passes (K=300 at a 4-bit fan-out, which only an in-package caller can
// select; 2 passes at the constant 8) on both corpora — the regime
// where intermediate scatter files are created, refined, and deleted
// inside the finish tasks.
func TestKernelMultiPassDeep(t *testing.T) {
	for _, mk := range []func(testing.TB, int) *DB{makeDB, zipfDB} {
		db := mk(t, 4000)
		want := db.ExpectedStats()
		for name, cfg := range map[string]staging{"grace": db.grace(300), "hybrid-hash": db.hybridHash(300, 0.3)} {
			for _, bits := range []int{4, radix.Bits} {
				for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
					var tel JoinTelemetry
					got, err := runStaged(t, db, cfg, bits, w, 0, &tel)
					if err != nil {
						t.Fatalf("%s bits=%d w=%d: %v", name, bits, w, err)
					}
					if got != want {
						t.Fatalf("%s bits=%d w=%d: got %+v want %+v", name, bits, w, got, want)
					}
					if passes, _ := radix.Plan(300, bits); tel.RadixPasses.Load() != int64(passes) {
						t.Fatalf("%s bits=%d: ran %d passes, want %d", name, bits, tel.RadixPasses.Load(), passes)
					}
				}
			}
		}
	}
}

// TestKernelGridUnderGrant re-runs a slice of the grid with a grant
// small enough to force restaging and hot-key streaming, so the batched
// kernels are also exercised on the spill paths — at the constant
// fan-out and, in-package, at the narrow one.
func TestKernelGridUnderGrant(t *testing.T) {
	db := zipfDB(t, 6000)
	want := db.ExpectedStats()
	const grant = int64(32 << 10)
	for name, cfg := range map[string]staging{"grace": db.grace(40), "hybrid-hash": db.hybridHash(40, 0)} {
		for _, bits := range []int{4, radix.Bits} {
			var tel JoinTelemetry
			got, err := runStaged(t, db, cfg, bits, 0, grant, &tel)
			if err != nil {
				t.Fatalf("%s bits=%d: %v", name, bits, err)
			}
			if got != want {
				t.Fatalf("%s bits=%d: got %+v want %+v", name, bits, got, want)
			}
			if peak := tel.PeakTableBytes.Load(); peak > grant {
				t.Fatalf("%s bits=%d: peak %d exceeds grant %d", name, bits, peak, grant)
			}
			if tel.Restages.Load() == 0 || tel.StreamProbes.Load() == 0 {
				t.Fatalf("%s bits=%d: grant forced %d restages and %d stream probes, want both",
					name, bits, tel.Restages.Load(), tel.StreamProbes.Load())
			}
		}
	}
}

// The map reference kernel: one bucket joined through a per-bucket Go
// map, one pair at a time. It was the probe kernel before the flat
// table and lives on only here, as what the flat table is gated
// against.

// probeBucketMap joins one bucket of staged references through a Go
// map, dereferencing each pair through the relation API.
func (db *DB) probeBucketMap(b bucket, st *JoinStats) {
	table := make(map[Ptr][]uint64, len(b.refs))
	for _, e := range b.refs {
		table[e.off] = append(table[e.off], e.rid)
	}
	offs := make([]Ptr, 0, len(table))
	for off := range table {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(a, b int) bool { return offs[a] < offs[b] })
	for _, off := range offs {
		sWord := binary.LittleEndian.Uint64(db.S[b.part].At(off))
		for _, rid := range table[off] {
			st.Pairs++
			st.Signature += pairHash(rid, sWord)
		}
	}
}

// bucketSet is a database's Grace buckets, materialized once so the
// probe stage can be driven — and timed — in isolation, partitioning
// excluded: TestKernelFlatMatchesMap probes the same buckets through
// both kernels, BenchmarkProbeKernelFlat probes them repeatedly and
// reports ns and allocations per pass.
type bucketSet struct {
	buckets []bucket
	refs    int64 // one probe pass folds exactly this many pairs
	kern    *joinKernel
	arena   probeArena
}

// bucket is one non-empty Grace bucket: an extent of the run's temp
// arena holding references into S partition part.
type bucket struct {
	part int
	refs []ref
}

// graceBuckets partitions R into k order-preserving Grace buckets per S
// partition and keeps the non-empty ones: the Grace staging with a
// finish that records each bucket instead of probing it, on one worker.
// The arena the buckets live in is closed, and checked gone, when the
// test ends.
func graceBuckets(t testing.TB, db *DB, k int) *bucketSet {
	t.Helper()
	r, done := newTestRun(t, db, 1, 0, nil)
	t.Cleanup(done)
	bs := &bucketSet{kern: r.kern}
	cfg := db.grace(k)
	cfg.finish = func(_ *stagedRun, _, part int, refs []ref) error {
		bs.buckets = append(bs.buckets, bucket{part, refs})
		bs.refs += int64(len(refs))
		return nil
	}
	if err := r.staged(cfg); err != nil {
		t.Fatal(err)
	}
	return bs
}

// probeFlat probes every bucket through the flat arena-backed table.
// After the first call the arena has reached its high-water capacity
// and later calls allocate nothing.
func (bs *bucketSet) probeFlat() JoinStats {
	var st JoinStats
	for _, b := range bs.buckets {
		bs.kern.probeFlat(&bs.arena, b.part, b.refs, &st)
	}
	return st
}

// probeMap probes every bucket of the set through the map kernel.
func probeMap(db *DB, bs *bucketSet) JoinStats {
	var st JoinStats
	for _, b := range bs.buckets {
		db.probeBucketMap(b, &st)
	}
	return st
}

// TestKernelFlatMatchesMap is the differential gate between the two
// probe kernels on identical buckets: flat table vs the reference
// Go map vs ground truth.
func TestKernelFlatMatchesMap(t *testing.T) {
	for _, mk := range []func(testing.TB, int) *DB{makeDB, zipfDB} {
		db := mk(t, 5000)
		want := db.ExpectedStats()
		bs := graceBuckets(t, db, 37)
		if got := probeMap(db, bs); got != want {
			t.Fatalf("probeMap: got %+v want %+v", got, want)
		}
		if got := bs.probeFlat(); got != want {
			t.Fatalf("probeFlat: got %+v want %+v", got, want)
		}
	}
}

// TestKernelProbeFlatZeroAllocs: after the first pass has grown the
// arena to its high-water capacity, the flat probe path allocates
// nothing — the steady state the per-bucket Go map could never reach.
func TestKernelProbeFlatZeroAllocs(t *testing.T) {
	bs := graceBuckets(t, makeDB(t, 5000), 37)
	bs.probeFlat() // warm the arena
	if allocs := testing.AllocsPerRun(5, func() { bs.probeFlat() }); allocs != 0 {
		t.Fatalf("steady-state probeFlat allocates %.1f times per pass", allocs)
	}
}

// TestKernelRadixPlan pins the pass structure the executor and the cost
// model must agree on.
func TestKernelRadixPlan(t *testing.T) {
	cases := []struct {
		k, bits      int
		passes, span int
	}{
		{1, 8, 1, 1},
		{256, 8, 1, 1},
		{257, 8, 2, 256},
		{65536, 8, 2, 256},
		{65537, 8, 3, 65536},
		{16, 4, 1, 1},
		{17, 4, 2, 16},
		{300, 4, 3, 256},
		{300, 12, 1, 1},
	}
	for _, c := range cases {
		passes, span := radix.Plan(c.k, c.bits)
		if passes != c.passes || span != c.span {
			t.Errorf("radix.Plan(%d, %d) = (%d, %d), want (%d, %d)",
				c.k, c.bits, passes, span, c.passes, c.span)
		}
	}
}

// TestKernelTableSlots pins the load-factor geometry tableBytesFor and
// the grant accounting are built on.
func TestKernelTableSlots(t *testing.T) {
	cases := []struct {
		refs  int
		slots int64
	}{
		{0, 8}, {1, 8}, {6, 8}, {7, 16}, {12, 16}, {13, 32},
		{3072, 4096}, {3073, 8192}, {4000, 8192},
	}
	for _, c := range cases {
		if got := tableSlots(c.refs); got != c.slots {
			t.Errorf("tableSlots(%d) = %d, want %d", c.refs, got, c.slots)
		}
		if bytes := tableBytesFor(c.refs); bytes < int64(c.refs)*16 {
			t.Errorf("tableBytesFor(%d) = %d below the per-ref floor", c.refs, bytes)
		}
	}
}

// TestKernelRangeTasksNoEmptyMorsels pins the rangeTasks contract: no
// tasks for empty inputs, exactly ⌈n/morselObjs⌉ otherwise, every range
// non-empty and the union covering [0, n) exactly once.
func TestKernelRangeTasksNoEmptyMorsels(t *testing.T) {
	for _, n := range []int{-5, 0, 1, morselObjs - 1, morselObjs, morselObjs + 1, 3 * morselObjs} {
		var covered int
		tasks := rangeTasks(nil, n, func(_, lo, hi int) error {
			if hi <= lo {
				t.Fatalf("n=%d: empty morsel [%d, %d)", n, lo, hi)
			}
			covered += hi - lo
			return nil
		})
		if want := morselCount(n); len(tasks) != want {
			t.Fatalf("n=%d: %d tasks, want %d", n, len(tasks), want)
		}
		for _, task := range tasks {
			if err := task(0); err != nil {
				t.Fatal(err)
			}
		}
		if want := max(n, 0); covered != want {
			t.Fatalf("n=%d: covered %d objects", n, covered)
		}
	}
}

// TestKernelSharedPoolGrid runs the grid's extremes on one shared pool
// to confirm the pipelined sort-merge job and the radix refine tasks
// coexist with other joins on the same workers.
func TestKernelSharedPoolGrid(t *testing.T) {
	db := makeDB(t, 6000)
	want := db.ExpectedStats()
	p := exec.NewPool(4)
	defer p.Close()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		alg := []join.Algorithm{join.SortMerge, join.Grace}[i%2]
		go func() {
			got, err := db.Run(JoinRequest{
				Algorithm: alg,
				K:         300,
				TmpDir:    t.TempDir(),
				Pool:      p,
			})
			if err == nil && got != want {
				err = errTestMismatch
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errTestMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "join stats mismatch" }
