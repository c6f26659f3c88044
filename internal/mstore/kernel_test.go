package mstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/params"
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
// independently computed ground truth, leave the retired probe-table
// counters at zero, create at most 2·D temp files (the index operators
// none), and leave an explicit TmpDir without a single temporary
// segment — the one temp arena is the behaviour under test. K=600 is
// past one scan's fan-out; TestKernelKBeyondOnePass is that regime's
// own test.
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
					p := newPool(t, w)
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
								Algorithm: alg, K: k, Pool: p,
								MRproc: mrproc, Telemetry: &tel, TmpDir: tmp,
							})
							if err != nil {
								t.Fatalf("%v k=%d w=%d grant=%d: %v", alg, k, w, grant, err)
							}
							if got != want {
								t.Fatalf("%v k=%d w=%d grant=%d: got %+v want %+v", alg, k, w, grant, got, want)
							}
							retiredZero(t, &tel)
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
// operator inside its scan — the handle's histogram is counted up
// front, so the scan's 8 morsels are the join's first, and the fourth
// cancels with the arena open and half written — and demands the
// explicit TmpDir is still emptied.
func TestKernelCancelMidScanLeavesNoTemporaries(t *testing.T) {
	db := makeDB(t, 20000) // 4 partitions × 5000 objects: 2 morsels each
	histOf(t, db)
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash} {
		ctx := &cancelAfter{}
		ctx.Context, ctx.cancel = context.WithCancel(context.Background())
		ctx.left.Store(4)
		tmp := filepath.Join(t.TempDir(), "tmp")
		var tel JoinTelemetry
		_, err := db.Run(JoinRequest{
			// 96,000 of a partition's 5000·64 S bytes: 0.3 resident.
			Algorithm: alg, K: 300, MRproc: 96000, Pool: newPool(t, 2),
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

// TestKernelCancelInsideOrderingLeavesNoTemporaries cancels a join from
// inside its finish: at a 4 KiB window every Grace bucket of the store
// spans many windows, and the cancel lands just before orderProbe
// partitions one, so the finish itself must notice it between classes
// and return context.Canceled. The join fails with context.Canceled and
// the TmpDir is left empty.
func TestKernelCancelInsideOrderingLeavesNoTemporaries(t *testing.T) {
	db := makeDB(t, 20000)
	h := histOf(t, db)
	for name, cfg := range map[string]staging{"sort-merge": layoutOf(t, db, JoinRequest{Algorithm: join.SortMerge}, 2), "grace": h.grace(4)} {
		var tel JoinTelemetry
		r, done := newTestRun(t, db, 2, &tel)
		ctx, cancel := context.WithCancel(r.ctx)
		r.ctx, r.windowBits = ctx, 12
		var mu sync.Mutex
		var finishErrs []error
		cfg.finish = func(s *stagedRun, w, part int, refs []ref) error {
			if _, width := extentWidth(refs); width <= s.windowBits {
				t.Errorf("%s: an extent fits one window; the cancel would not land inside the ordering", name)
			}
			cancel()
			err := s.orderProbe(w, part, refs)
			mu.Lock()
			finishErrs = append(finishErrs, err)
			mu.Unlock()
			return err
		}
		err := stagedJob(r, cfg)
		done()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: join cancelled inside the ordering returned %v", name, err)
		}
		if len(finishErrs) == 0 {
			t.Fatalf("%s: no finish ran", name)
		}
		for _, err := range finishErrs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: orderProbe returned %v: the cancel was not seen inside the ordering recursion", name, err)
			}
		}
	}
}

// newTestRun builds a joinRun over a fresh TmpDir the way RunParts does,
// for tests that drive the skeleton directly: to narrow the per-pass
// fan-out or the probe window, or wrap a finish — the things no request
// can do — and to look at the arena before it is unlinked. The returned
// teardown closes the arena and the pool and fails the test if a
// temporary is left behind.
func newTestRun(t testing.TB, db *DB, workers int, tel *JoinTelemetry) (*joinRun, func()) {
	t.Helper()
	p := exec.NewPool(workers)
	tmp := t.TempDir()
	r := newJoinRun(context.Background(), db, p, tel, tmp)
	return r, func() {
		t.Helper()
		r.tmp.close()
		p.Close()
		if left := segFiles(t, tmp); len(left) != 0 {
			t.Fatalf("temporaries left behind: %v", left)
		}
	}
}

// stagedJob runs one staging configuration on r the way RunParts runs
// a staging part: the scan, and the finish tasks its last morsel adds,
// in one job, waited on once.
func stagedJob(r *joinRun, cfg staging) error {
	r.jb = r.p.Begin(r.ctx)
	tasks, err := r.staged(cfg)
	if err != nil {
		return err
	}
	r.add(tasks...)
	return r.jb.Wait()
}

// histOf returns db's reference histogram, counting it through the
// handle's cache, for tests that build a staging configuration
// themselves.
func histOf(t testing.TB, db *DB) *refHist {
	t.Helper()
	p := exec.NewPool(1)
	defer p.Close()
	h, err := db.histogram(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// layoutOf is the configuration Run stages req into on a pool of
// workers, for a request that stages.
func layoutOf(t testing.TB, db *DB, req JoinRequest, workers int) staging {
	return histOf(t, db).layout(db.planKey(req, workers)).cfg
}

// runStaged runs one staging configuration at the given fan-out.
func runStaged(t *testing.T, db *DB, cfg staging, fanBits, workers int, tel *JoinTelemetry) (JoinStats, error) {
	t.Helper()
	r, done := newTestRun(t, db, workers, tel)
	defer done()
	r.fanBits = fanBits
	err := stagedJob(r, cfg)
	return r.stats.total(), err
}

// retiredZero fails the test unless the four probe-table counters that
// JoinTelemetry keeps for the benchmark harness read zero.
func retiredZero(t testing.TB, tel *JoinTelemetry) {
	t.Helper()
	if r, rr, sp, pk := tel.Restages.Load(), tel.RestagedRefs.Load(), tel.StreamProbes.Load(), tel.PeakTableBytes.Load(); r|rr|sp|pk != 0 {
		t.Fatalf("retired counters moved: %d restages, %d restaged refs, %d stream probes, %d peak table bytes", r, rr, sp, pk)
	}
}

// extentWidth is what orderProbe reads off an extent: its least S
// offset and the bit width of its span.
func extentWidth(refs []ref) (lo Ptr, width int) {
	lo, hi := refs[0].off, refs[0].off
	for _, e := range refs {
		lo, hi = min(lo, e.off), max(hi, e.off)
	}
	return lo, bits.Len64(uint64(hi - lo))
}

// TestKernelKBeyondOnePass: a K past one scan's fan-out stages into
// ⌈K/2^8⌉ destinations a row — 2 at K = 300, and ⌈(|R|/D)/256⌉ at the
// cap params.Cap applies: Explain reports it, the layout the scan stages
// into has it, and Run is exact on both corpora. Run in-package at a
// 2-bit fan-out and a 256 B window, the finish of those few wide extents
// recurses through several levels of orderWindows and stays exact.
func TestKernelKBeyondOnePass(t *testing.T) {
	for _, mk := range []func(testing.TB, int) *DB{makeDB, zipfDB} {
		db := mk(t, 4000)
		want := db.ExpectedStats()
		for _, c := range []struct{ k, wantK int }{{300, 2}, {db.CountR() / db.D, (db.CountR()/db.D + 255) / 256}} {
			k, wantK := c.k, c.wantK
			// 24,000 of a partition's 1000·64 S bytes: 0.3 resident.
			for _, req := range []JoinRequest{{Algorithm: join.Grace, K: k}, {Algorithm: join.HybridHash, K: k, MRproc: 24000}} {
				name := fmt.Sprintf("%v K=%d", req.Algorithm, k)
				for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
					req.Pool = newPool(t, w)
					plan, err := db.Explain(req)
					if err != nil {
						t.Fatalf("%s w=%d: %v", name, w, err)
					}
					if cfg := layoutOf(t, db, req, w); plan.K != wantK || cfg.k != plan.K {
						t.Fatalf("%s w=%d: explained K=%d, the scan stages into %d a row, want %d", name, w, plan.K, cfg.k, wantK)
					}
					if got, err := db.Run(req); err != nil || got != want {
						t.Fatalf("%s w=%d: %+v, %v; want %+v", name, w, got, err, want)
					}
				}

				r, done := newTestRun(t, db, 2, nil)
				r.fanBits, r.windowBits = 2, 8
				cfg := layoutOf(t, db, req, 2)
				levels := 0
				probe := cfg.finish
				var mu sync.Mutex
				cfg.finish = func(s *stagedRun, w, part int, refs []ref) error {
					_, width := extentWidth(refs)
					mu.Lock()
					levels = max(levels, (width-s.windowBits+s.fanBits-1)/s.fanBits)
					mu.Unlock()
					return probe(s, w, part, refs)
				}
				err := stagedJob(r, cfg)
				got := r.stats.total()
				done()
				if err != nil || got != want {
					t.Fatalf("%s at a 2-bit fan-out: %+v, %v; want %+v", name, got, err, want)
				}
				if levels < 2 {
					t.Fatalf("%s: the widest extent needs %d ordering levels, the case is meant to reach 2", name, levels)
				}
			}
		}
	}
}

// TestKernelGridUnderGrant re-runs a slice of the grid on the hot-key
// store at grants from one that fits nothing (MRproc 64 B: K clamps to
// one bucket per reference) through 32 KiB to unbounded, at the
// constant fan-out and, in-package, at the narrow one. The grant now
// reaches the join only through K and the resident prefix, so every
// point is exact and no retired counter moves.
func TestKernelGridUnderGrant(t *testing.T) {
	db := zipfDB(t, 6000)
	want := db.ExpectedStats()
	h := histOf(t, db)
	for _, mrproc := range []int64{64, 32 << 10, 0} {
		for name, cfg := range map[string]staging{
			"grace":       h.hybridHash(db.plan(join.Grace, 0, mrproc)),
			"hybrid-hash": h.hybridHash(db.plan(join.HybridHash, 0, mrproc)),
		} {
			for _, bits := range []int{4, params.Bits} {
				var tel JoinTelemetry
				got, err := runStaged(t, db, cfg, bits, 0, &tel)
				if err != nil {
					t.Fatalf("%s mrproc=%d bits=%d: %v", name, mrproc, bits, err)
				}
				if got != want {
					t.Fatalf("%s mrproc=%d bits=%d: got %+v want %+v", name, mrproc, bits, got, want)
				}
				retiredZero(t, &tel)
			}
		}
	}
}

// The map reference kernel: one bucket joined through a per-bucket Go
// map, one pair at a time, in S address order. It was the probe kernel
// before the flat table, which orderProbe replaced in turn, and lives on
// only here, as what the finish is gated against.

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
// finish can be driven — and timed — in isolation, staging excluded:
// TestKernelOrderProbeMatchesMap finishes the buckets and probes them
// through the map kernel, BenchmarkOrderProbe finishes them repeatedly
// and reports ns and allocations per pass.
type bucketSet struct {
	buckets []bucket
	refs    int64 // one pass folds exactly this many pairs
	s       *stagedRun
}

// bucket is one non-empty Grace bucket: an extent of the run's temp
// arena holding references into S partition part.
type bucket struct {
	part int
	refs []ref
}

// graceBuckets partitions R into k order-preserving Grace buckets per S
// partition and keeps the non-empty ones: the Grace staging with a
// finish that records each bucket instead of probing it, on one worker,
// whose probe window is then narrowed to 2^windowBits bytes. Every
// bucket must fit a morsel, so that orderProbe probes each window inline
// on the calling worker and never needs the staging's job. The arena the
// buckets live in is closed, and checked gone, when the test ends.
func graceBuckets(t testing.TB, db *DB, k, windowBits int) *bucketSet {
	t.Helper()
	r, done := newTestRun(t, db, 1, nil)
	t.Cleanup(done)
	bs := &bucketSet{}
	cfg := histOf(t, db).grace(k)
	cfg.finish = func(_ *stagedRun, _, part int, refs []ref) error {
		if len(refs) > morselObjs {
			return fmt.Errorf("a bucket of %d references exceeds a morsel", len(refs))
		}
		bs.buckets = append(bs.buckets, bucket{part, refs})
		bs.refs += int64(len(refs))
		return nil
	}
	if err := stagedJob(r, cfg); err != nil {
		t.Fatal(err)
	}
	r.windowBits = windowBits
	bs.s = &stagedRun{joinRun: r, staging: cfg}
	return bs
}

// orderProbe finishes every bucket of the set on worker 0 and returns
// what the pass folded.
func (bs *bucketSet) orderProbe(t testing.TB) JoinStats {
	for _, b := range bs.buckets {
		if err := bs.s.orderProbe(0, b.part, b.refs); err != nil {
			t.Fatal(err)
		}
	}
	st := bs.s.stats.total()
	clear(bs.s.stats)
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

// TestKernelOrderProbeMatchesMap is the differential gate on the one
// finish: on identical buckets, orderProbe and the map kernel both fold
// the ground truth, and afterwards every bucket's window index,
// (off − lo) >> windowBits with lo its least offset, is non-decreasing
// along the extent. The inputs cover the finish's shapes: one hot key
// (a span of one object), buckets spanning a whole S partition over
// many windows, the Zipf store, and a window and fan-out narrow enough
// that the ordering recurses at least two levels.
func TestKernelOrderProbeMatchesMap(t *testing.T) {
	hot := func(t testing.TB, nr int) *DB {
		db := makeDB(t, nr)
		p := SPtr{Part: 1, Off: db.S[1].PtrAt(7)}
		for _, ri := range db.R {
			for x := range ri.Count() {
				EncodeSPtr(ri.Object(x), p)
			}
		}
		return db
	}
	for _, c := range []struct {
		name                string
		mk                  func(testing.TB, int) *DB
		k, fanBits, winBits int
		minLevels           int // ordering levels the widest bucket needs
	}{
		{"hot-key", hot, 4, params.Bits, windowBits, 0},
		{"whole-partition", makeDB, 1, params.Bits, 12, 1},
		{"zipf", zipfDB, 37, params.Bits, 9, 1},
		{"two-level", makeDB, 2, 2, 8, 2},
	} {
		db := c.mk(t, 4000)
		want := db.ExpectedStats()
		bs := graceBuckets(t, db, c.k, c.winBits)
		bs.s.fanBits = c.fanBits
		levels := 0
		for _, b := range bs.buckets {
			_, width := extentWidth(b.refs)
			levels = max(levels, (max(width-c.winBits, 0)+c.fanBits-1)/c.fanBits)
		}
		if levels < c.minLevels {
			t.Fatalf("%s: the widest bucket needs %d ordering levels, the case is meant to reach %d", c.name, levels, c.minLevels)
		}
		if got := probeMap(db, bs); got != want {
			t.Fatalf("%s: map kernel: got %+v want %+v", c.name, got, want)
		}
		if got := bs.orderProbe(t); got != want {
			t.Fatalf("%s: orderProbe: got %+v want %+v", c.name, got, want)
		}
		for i, b := range bs.buckets {
			lo, _ := extentWidth(b.refs)
			prev := Ptr(0)
			for x, e := range b.refs {
				win := (e.off - lo) >> c.winBits
				if win < prev {
					t.Fatalf("%s: bucket %d: window %d at %d follows window %d", c.name, i, win, x, prev)
				}
				prev = win
			}
		}
	}
}

// TestKernelOrderProbeZeroAllocs: an extent within one window and one
// morsel — every bucket of a skewed store's thousands, on the benchmark
// — is probed inline with no allocation at all: no task, no closure, no
// table.
func TestKernelOrderProbeZeroAllocs(t *testing.T) {
	bs := graceBuckets(t, makeDB(t, 5000), 37, windowBits)
	for _, b := range bs.buckets {
		if _, width := extentWidth(b.refs); width > windowBits {
			t.Fatalf("a bucket spans 2^%d bytes, more than one window", width)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { bs.orderProbe(t) }); allocs != 0 {
		t.Fatalf("finishing in-window extents allocates %.1f times per pass", allocs)
	}
}

// morselCount is the number of tasks rangeTasks emits for n objects at
// the morsel size.
func morselCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + morselObjs - 1) / morselObjs
}

// TestKernelRangeTasksNoEmptyMorsels pins the rangeTasks contract: no
// tasks for empty inputs, exactly ⌈n/size⌉ otherwise, every range
// non-empty and the union covering [0, n) exactly once.
func TestKernelRangeTasksNoEmptyMorsels(t *testing.T) {
	type tc struct{ n, size, want int }
	var cases []tc
	for _, n := range []int{-5, 0, 1, morselObjs - 1, morselObjs, morselObjs + 1, 3 * morselObjs} {
		cases = append(cases, tc{n, morselObjs, morselCount(n)})
	}
	cases = append(cases, tc{1000, 64, 16}, tc{2000, 10, 200}, tc{7, 1, 7})
	for _, c := range cases {
		seen := make([]int, max(c.n, 0))
		tasks := rangeTasks(nil, c.n, c.size, func(_, lo, hi int) error {
			if hi <= lo {
				t.Fatalf("n=%d size=%d: empty range [%d, %d)", c.n, c.size, lo, hi)
			}
			if hi-lo > c.size {
				t.Fatalf("n=%d size=%d: range [%d, %d) exceeds the size", c.n, c.size, lo, hi)
			}
			for x := lo; x < hi; x++ {
				seen[x]++
			}
			return nil
		})
		if len(tasks) != c.want {
			t.Fatalf("n=%d size=%d: %d tasks, want %d", c.n, c.size, len(tasks), c.want)
		}
		for _, task := range tasks {
			if err := task(0); err != nil {
				t.Fatal(err)
			}
		}
		for x, k := range seen {
			if k != 1 {
				t.Fatalf("n=%d size=%d: object %d covered %d times", c.n, c.size, x, k)
			}
		}
	}
}

// TestKernelSharedPoolGrid runs the grid's extremes on one shared pool
// to confirm the pipelined sort-merge job and Grace's ordering tasks
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
