package mstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mmjoin/internal/join"
)

var stagingAlgs = []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}

// floorReq is the floor: hybrid hash with no grant, unbounded, keeps all
// of S resident (f0 = 1, K = 0), so it stages nothing.
var floorReq = JoinRequest{Algorithm: join.HybridHash}

// histPassesOf reads how many histogram counts the handle has begun.
func histPassesOf(db *DB) int {
	db.histMu.Lock()
	defer db.histMu.Unlock()
	return db.histPasses
}

// TestHistogramCountedOnce: a handle counts its reference histogram at
// its first staging join and never again — not when eight concurrent
// first joins of all four staging operators race for it, and not over
// the sequential joins after them — and every join is exact.
func TestHistogramCountedOnce(t *testing.T) {
	db := makeDB(t, 6000)
	want := db.ExpectedStats()
	p := newPool(t, 2)
	run := func(g int) error {
		st, err := db.Run(JoinRequest{
			// 19,200 of a partition's 1500·64 S bytes: 0.16 resident.
			Algorithm: stagingAlgs[g%len(stagingAlgs)], K: 7, MRproc: 19200, Pool: p,
			TmpDir: filepath.Join(t.TempDir(), fmt.Sprintf("g%d", g)),
		})
		if err == nil && st != want {
			err = fmt.Errorf("%+v, want %+v", st, want)
		}
		return err
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(g); err != nil {
				t.Errorf("concurrent join %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
	for g := range 12 {
		if err := run(g); err != nil {
			t.Fatalf("sequential join %d: %v", g, err)
		}
	}
	if n := histPassesOf(db); n != 1 {
		t.Fatalf("20 joins counted the histogram %d times, want once", n)
	}
}

// TestFloorReadsNoHistogram: on a fresh indexed handle, the floor's
// join, its Explain and Explain of index-merge count no histogram and
// answer as a counted one does — the exact result; K = 0, F0 = 1 (0 for
// index-merge) and all |R| references resident. The first Explain of a
// plan that stages counts it, once, and the join after it reads it.
func TestFloorReadsNoHistogram(t *testing.T) {
	db := indexedDB(t, makeDB(t, 6000))
	want, nr := db.ExpectedStats(), int64(db.CountR())
	if st, err := db.Run(floorReq); err != nil || st != want {
		t.Fatalf("floor join: %+v, %v, want %+v", st, err, want)
	}
	for _, req := range []JoinRequest{floorReq, {Algorithm: join.IndexMerge}} {
		plan, err := db.Explain(req)
		if err != nil {
			t.Fatal(err)
		}
		f0 := 1.0
		if req.Algorithm == join.IndexMerge {
			f0 = 0
		}
		if plan.K != 0 || plan.F0 != f0 || plan.Resident != nr || plan.Staged != 0 || plan.ArenaBytes != 0 || plan.Moves != 0 {
			t.Fatalf("%v: explained %+v, want K=0 F0=%g and all %d references resident", req.Algorithm, plan, f0, nr)
		}
	}
	if n := histPassesOf(db); n != 0 {
		t.Fatalf("the floor and the index joins counted the histogram %d times, want none", n)
	}
	grace := JoinRequest{Algorithm: join.Grace, K: 4}
	if plan, err := db.Explain(grace); err != nil || plan.Staged != nr {
		t.Fatalf("grace: explained %+v, %v, want all %d references staged", plan, err, nr)
	}
	if st, err := db.Run(grace); err != nil || st != want {
		t.Fatalf("grace join: %+v, %v, want %+v", st, err, want)
	}
	if n := histPassesOf(db); n != 1 {
		t.Fatalf("a staging Explain and join counted the histogram %d times, want once", n)
	}
}

// TestScanPointerRuleIsSObjects: the scan tests a pointer's offset
// without a division, so at object sizes with and without an odd factor
// it must accept exactly the offsets DB.sObject accepts — every object's
// first byte and nothing else, from a stretch before S0's objects to one
// past them — and fail every other with sObject's error.
func TestScanPointerRuleIsSObjects(t *testing.T) {
	for _, size := range []int{MinObjSize, 24, 40, 64, 100, 128} {
		db, err := CreateDB(filepath.Join(t.TempDir(), "db"), 2, 20, 20, size, 3)
		if err != nil {
			t.Fatal(err)
		}
		r, done := newTestRun(t, db, 1, nil)
		floor, s0 := db.floor(), db.S[0]
		for off := s0.data - Ptr(2*size); off < s0.PtrAt(s0.Count())+Ptr(2*size); off++ {
			ptr := SPtr{Part: 0, Off: off}
			db.R[0].SetJoinAttr(0, ptr)
			_, want := db.sObject(ptr)
			got := r.newScan(floor).morsel(0, 0, 0, 1)
			if (got == nil) != (want == nil) || got != nil && !strings.Contains(got.Error(), want.Error()) {
				t.Fatalf("size %d, offset %d: the scan says %v, sObject %v", size, off, got, want)
			}
		}
		done()
		db.Close()
	}
}

// TestHistogramCancelledCountIsNotCached: a join cancelled inside the
// histogram pass fails with context.Canceled and leaves nothing cached,
// so the handle's next join counts again and is exact.
func TestHistogramCancelledCountIsNotCached(t *testing.T) {
	db := makeDB(t, 20000) // 4 partitions × 5000 objects: 8 histogram morsels
	want := db.ExpectedStats()
	ctx := &cancelAfter{}
	ctx.Context, ctx.cancel = context.WithCancel(context.Background())
	ctx.left.Store(3)
	var tel JoinTelemetry
	_, err := db.Run(JoinRequest{Algorithm: join.Grace, K: 4, Pool: newPool(t, 2), Ctx: ctx, Telemetry: &tel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("join cancelled inside the histogram pass returned %v", err)
	}
	if tel.TempFiles.Load() != 0 {
		t.Fatal("the cancel landed after the histogram pass: an arena was created")
	}
	if db.hist != nil || db.histErr != nil {
		t.Fatalf("a cancelled count was cached: %v, %v", db.hist != nil, db.histErr)
	}
	st, err := db.Run(JoinRequest{Algorithm: join.Grace, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("join after the cancelled count: %+v, want %+v", st, want)
	}
	if n := histPassesOf(db); n != 2 {
		t.Fatalf("%d histogram counts, want 2: the cancelled one and its redo", n)
	}
}

// TestRunRejectsPointerRewrittenAfterHistogram: Relation.SetJoinAttr is
// build-time only. A pointer of R1 moved to another S partition after
// the handle's first join no longer matches the histogram the layout is
// read from, and the join fails with errStale instead of overrunning an
// extent or returning a wrong answer. Nested loops' own-partition
// references are resident, so its two one-sided moves reach each scan
// check alone: a resident reference made foreign overfills a
// destination (a claim runs past its extent's end), a foreign one made
// resident underfills one (a cursor stops short of it). A pointer moved
// 8 bytes into its own object stays in its cell, so every count still
// matches: the scan's own pointer rule fails it with errBadPointer.
func TestRunRejectsPointerRewrittenAfterHistogram(t *testing.T) {
	for _, c := range []struct {
		name     string
		from, to uint32 // from == to: misalign the pointer in place
		algs     []join.Algorithm
		want     error
	}{
		{"foreign to foreign", 2, 3, stagingAlgs, errStale},
		{"resident to foreign", 1, 2, []join.Algorithm{join.NestedLoops}, errStale},
		{"foreign to resident", 2, 1, []join.Algorithm{join.NestedLoops}, errStale},
		{"misaligned in its cell", 2, 2, stagingAlgs, errBadPointer},
	} {
		db := makeDB(t, 4000)
		if _, err := db.Run(JoinRequest{Algorithm: join.Grace, K: 4}); err != nil {
			t.Fatal(err)
		}
		x := 0
		for db.R[1].JoinAttr(x).Part != c.from {
			x++
		}
		ptr := SPtr{Part: c.to, Off: db.S[c.to].PtrAt(0)}
		if c.from == c.to {
			ptr = db.R[1].JoinAttr(x)
			ptr.Off += 8
		}
		db.R[1].SetJoinAttr(x, ptr)
		for _, alg := range c.algs {
			if st, err := db.Run(JoinRequest{Algorithm: alg, K: 4, MRproc: 4096}); !errors.Is(err, c.want) {
				t.Errorf("%s: %v after the rewrite: %+v, %v, want %v", c.name, alg, st, err, c.want)
			}
		}
	}
}

// TestReopenAfterRewriteJoinsExactly is the benchmark's pattern: join,
// rewrite every pointer, close, reopen. The new handle counts its own
// histogram, and every staging operator is exact over the new pointers.
func TestReopenAfterRewriteJoinsExactly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := CreateDB(dir, 4, 4000, 4000, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(JoinRequest{Algorithm: join.Grace, K: 4}); err != nil {
		t.Fatal(err)
	}
	s0 := db.S[0]
	for _, ri := range db.R {
		for x := range ri.Count() {
			ri.SetJoinAttr(x, SPtr{Part: 0, Off: s0.PtrAt(x % 7)})
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = OpenDB(dir, 4); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := db.ExpectedStats()
	for _, alg := range stagingAlgs {
		st, err := db.Run(JoinRequest{Algorithm: alg, K: 4, MRproc: 19200})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if st != want {
			t.Fatalf("%v: %+v, want %+v", alg, st, want)
		}
	}
}

// TestCutCellsEquiDepth pins the bucket cut: buckets follow address
// order and stay in range, and a cell holding more than |row|/k
// references shares its bucket with no other non-empty cell unless the
// buckets ran out (the last one). In a row without such a cell no bucket
// holds more than twice its share. (Isolating hot cells spends buckets,
// so a row with them can pile more into the buckets that follow.)
func TestCutCellsEquiDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 2000 {
		k := 1 + rng.Intn(40)
		cnt := make([]int, rng.Intn(300))
		total := 0
		for c := range cnt {
			switch rng.Intn(8) {
			case 0:
				cnt[c] = rng.Intn(5000) * (trial % 2) // even trials have no hot cell
			case 1, 2:
			default:
				cnt[c] = rng.Intn(50)
			}
			total += cnt[c]
		}
		bucket := make([]int32, len(cnt))
		cutCells(bucket, cnt, k)
		size := make([]int, k)
		cells := make([]int, k)
		heavy := make([]bool, k)
		hot := false
		for c, b := range bucket {
			if b < 0 || int(b) >= k || c > 0 && b < bucket[c-1] {
				t.Fatalf("trial %d: cell %d in bucket %d after %d (k=%d)", trial, c, b, bucket[max(c-1, 0)], k)
			}
			if cnt[c] > 0 {
				size[b] += cnt[c]
				cells[b]++
				heavy[b] = heavy[b] || cnt[c]*k > total
				hot = hot || heavy[b]
			}
		}
		for b := range k {
			if heavy[b] && cells[b] > 1 && b < k-1 {
				t.Fatalf("trial %d: a hot cell shares bucket %d of %d with %d others", trial, b, k, cells[b]-1)
			}
			if !hot && size[b]*k > 2*total {
				t.Fatalf("trial %d: bucket %d of %d holds %d of %d references", trial, b, k, size[b], total)
			}
		}
	}
}
