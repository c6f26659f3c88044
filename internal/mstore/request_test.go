package mstore

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"mmjoin/internal/join"
	"mmjoin/internal/params"
)

func testDB(t *testing.T, d, n int) *DB {
	t.Helper()
	db, err := CreateDB(filepath.Join(t.TempDir(), "db"), d, n, n, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestRunExecutesEveryRealAlgorithm(t *testing.T) {
	db := testDB(t, 3, 3000)
	want := db.ExpectedStats()
	for _, alg := range []join.Algorithm{
		join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash,
	} {
		st, err := db.Run(JoinRequest{Algorithm: alg, MRproc: 8 << 10})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if st != want {
			t.Errorf("%v: %+v, want %+v", alg, st, want)
		}
	}
}

// TestRunIsOnePoolJob: a warm staging join — the handle's histogram
// counted — is exactly one pool job, its finish tasks added to the
// scan's job by the scan's last morsel, on every staging operator.
func TestRunIsOnePoolJob(t *testing.T) {
	db := testDB(t, 3, 30000)
	want := db.ExpectedStats()
	p := newPool(t, 2)
	histOf(t, db)
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash} {
		before := p.Stats().Jobs
		st, err := db.Run(JoinRequest{Algorithm: alg, MRproc: 8 << 10, Pool: p})
		if err != nil || st != want {
			t.Fatalf("%v: %+v, %v; want %+v", alg, st, err, want)
		}
		if jobs := p.Stats().Jobs - before; jobs != 1 {
			t.Fatalf("%v: a warm join ran %d pool jobs, want 1", alg, jobs)
		}
	}
}

func TestRunRejectsNonExecutablePlans(t *testing.T) {
	db := testDB(t, 2, 200)
	if _, err := db.Run(JoinRequest{Algorithm: join.TraditionalGrace}); err == nil {
		t.Error("TraditionalGrace accepted by the real store")
	}
	if _, err := db.Run(JoinRequest{Algorithm: join.Algorithm(42)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := db.Run(JoinRequest{Algorithm: join.Grace, MRproc: -1}); err == nil {
		t.Error("negative grant accepted")
	}
}

func TestRequestDerivesGraceParameters(t *testing.T) {
	db := testDB(t, 2, 2000)
	// K follows the simulator's rule K = ceil(fuzz*|RSi|*r/M) with
	// |RSi| = |R|/D: 1.2*1000*32/4096 = 9.375 -> 10.
	if k, f0 := db.plan(join.Grace, 0, 4096); k != 10 || f0 != 0 {
		t.Errorf("derived (K, f0) = (%d, %g), want (10, 0)", k, f0)
	}
	// An ample grant collapses to one bucket; an explicit K wins, up to
	// one bucket per expected reference.
	if k, _ := db.plan(join.Grace, 0, 1<<30); k != 1 {
		t.Errorf("ample-memory K = %d, want 1", k)
	}
	if k, _ := db.plan(join.Grace, 3, 4096); k != 3 {
		t.Errorf("explicit K overridden to %d", k)
	}
	// Past one scan's fan-out K is the count of its destinations a row:
	// the cap 1000 takes two passes of span 256, so ⌈1000/256⌉ = 4.
	if k, _ := db.plan(join.Grace, 5000, 4096); k != 4 {
		t.Errorf("explicit K = %d past |R|/D, want the cap 1000 cut to 4 destinations", k)
	}
	if k, _ := db.plan(join.Grace, 256, 4096); k != 256 {
		t.Errorf("explicit K = %d at one scan's fan-out, want 256", k)
	}
	// Hybrid-hash residency: the share of one S partition that fits in
	// 0.8 of the grant, and K shrunk to the overflow:
	// 1.2*(1-0.2)*1000*32/8000 = 3.84 -> 4.
	if k, f0 := db.plan(join.HybridHash, 0, 8000); k != 4 || f0 != 0.8*8000/(1000*32) {
		t.Errorf("hybrid (K, f0) = (%d, %g), want (4, %g)", k, f0, 0.8*8000/(1000*32))
	}
	if k, f0 := db.plan(join.HybridHash, 0, 1<<30); k != 0 || f0 != 1 {
		t.Errorf("ample-memory hybrid (K, f0) = (%d, %g), want (0, 1)", k, f0)
	}
	// Zero is unbounded: one bucket, nothing resident.
	if k, f0 := db.plan(join.HybridHash, 0, 0); k != 1 || f0 != 0 {
		t.Errorf("unbounded hybrid (K, f0) = (%d, %g), want (1, 0)", k, f0)
	}
}

// TestRequestPlanIsTheSharedRule: the store's K and resident fraction
// are the shared rules' answer at the store's inputs — |R|/D references,
// the average S partition, MRproc as the one memory figure — across a
// sweep of grants from below a page to past the whole S partition.
func TestRequestPlanIsTheSharedRule(t *testing.T) {
	db := testDB(t, 3, 6000)
	refs, sObjs, size := 2000.0, 2000.0, int64(32)
	for mrproc := int64(0); mrproc <= 1<<17; mrproc = mrproc*3/2 + 512 {
		for _, k := range []int{0, 7} {
			wantF0 := params.Resident(mrproc, sObjs, size)
			want := params.Cap(params.Buckets(k, wantF0, refs, size, mrproc), refs)
			if got, f0 := db.plan(join.HybridHash, k, mrproc); got != want || f0 != wantF0 {
				t.Errorf("hybrid MRproc=%d k=%d: (K, f0) = (%d, %g), want (%d, %g)", mrproc, k, got, f0, want, wantF0)
			}
			want = params.Cap(params.Buckets(k, 0, refs, size, mrproc), refs)
			if got, f0 := db.plan(join.Grace, k, mrproc); got != want || f0 != 0 {
				t.Errorf("grace MRproc=%d k=%d: (K, f0) = (%d, %g), want (%d, 0)", mrproc, k, got, f0, want)
			}
		}
	}
}

// TestHybridHashFullyResidentStagesNothing: a grant whose 0.8 covers an
// S partition makes f0 = 1, so K = 0 even when the request names a K —
// every reference joins during the scan, no arena is created, and the
// join is exact. A served join on the default grant takes this path.
func TestHybridHashFullyResidentStagesNothing(t *testing.T) {
	db := testDB(t, 2, 2000)
	want := db.ExpectedStats()
	mrproc := int64(1000*32*10/8 + 1) // |Sj|·s / 0.8, rounded up
	for _, k := range []int{0, 5} {
		if got, f0 := db.plan(join.HybridHash, k, mrproc); got != 0 || f0 != 1 {
			t.Fatalf("k=%d: (K, f0) = (%d, %g), want (0, 1)", k, got, f0)
		}
		var tel JoinTelemetry
		tmp := t.TempDir()
		st, err := db.Run(JoinRequest{Algorithm: join.HybridHash, MRproc: mrproc, K: k, Telemetry: &tel, TmpDir: tmp})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if st != want {
			t.Errorf("k=%d: %+v, want %+v", k, st, want)
		}
		if n := tel.TempFiles.Load(); n != 0 {
			t.Errorf("k=%d: %d temp files, want 0", k, n)
		}
		if left, _ := filepath.Glob(filepath.Join(tmp, "*")); len(left) != 0 {
			t.Errorf("k=%d: staged into %v", k, left)
		}
	}
}

func TestWorkloadMirrorsStoredPointers(t *testing.T) {
	db := testDB(t, 3, 900)
	w, err := db.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if w.Spec.NR != db.CountR() || w.Spec.NS != db.CountS() || w.Spec.D != db.D {
		t.Fatalf("spec shape wrong: %+v", w.Spec)
	}
	if w.Spec.RSize != db.ObjSize || w.Spec.PtrSize != sptrBytes {
		t.Fatalf("spec sizes wrong: %+v", w.Spec)
	}
	for i, rel := range db.R {
		if len(w.Refs[i]) != rel.Count() {
			t.Fatalf("R%d: %d refs for %d objects", i, len(w.Refs[i]), rel.Count())
		}
		for x := 0; x < rel.Count(); x++ {
			ptr := DecodeSPtr(rel.Object(x))
			ref := w.Refs[i][x]
			if int32(ptr.Part) != ref.Part ||
				db.S[ptr.Part].PtrAt(int(ref.Index)) != ptr.Off {
				t.Fatalf("R%d[%d]: ref %+v does not round-trip to %+v", i, x, ref, ptr)
			}
		}
	}
	if skew := w.Skew(); skew < 1 || skew > 2 {
		t.Errorf("uniform db skew = %g", skew)
	}
}

// A stored pointer before S's first object or past its last would become
// a negative or unbounded relation.SPtr.Index, which the workload's
// statistics bitmap indexes by; Workload rejects it like a bad partition.
func TestWorkloadRejectsDanglingPointers(t *testing.T) {
	for name, off := range map[string]func(s *Relation) Ptr{
		"before the first object": func(s *Relation) Ptr { return s.PtrAt(0) - Ptr(s.size) },
		"past the last object":    func(s *Relation) Ptr { return s.PtrAt(s.Count()) },
	} {
		db := testDB(t, 2, 100)
		db.R[1].SetJoinAttr(5, SPtr{Part: 0, Off: off(db.S[0])})
		if w, err := db.Workload(); err == nil {
			t.Errorf("pointer %s: got a workload (%d refs), want an error", name, len(w.Refs[1]))
		}
	}
}

// TestRunRejectsDanglingPointers mirrors TestWorkloadRejectsDanglingPointers
// for the pointer joins: the histogram pass rejects such a pointer, and
// caches the verdict, so every staging operator fails on the handle and
// keeps failing without counting again, and the floor's scan (hybrid
// hash with all of S resident) rejects it on every try without counting
// at all — none reads the segment header or the slack space after the
// last object as an S word.
func TestRunRejectsDanglingPointers(t *testing.T) {
	for name, off := range map[string]func(s *Relation) Ptr{
		"before the first object": func(s *Relation) Ptr { return s.PtrAt(0) - Ptr(s.size) },
		"past the last object":    func(s *Relation) Ptr { return s.PtrAt(s.Count()) },
	} {
		db := testDB(t, 2, 100)
		db.R[1].SetJoinAttr(5, SPtr{Part: 0, Off: off(db.S[0])})
		reqs := []JoinRequest{floorReq}
		for _, alg := range stagingAlgs {
			reqs = append(reqs, JoinRequest{Algorithm: alg})
		}
		for _, req := range reqs {
			for try := range 2 {
				if st, err := db.Run(req); !errors.Is(err, errBadPointer) {
					t.Errorf("pointer %s, %v MRproc=%d (join %d): %+v, %v, want the dangling-pointer error",
						name, req.Algorithm, req.MRproc, try+1, st, err)
				}
			}
		}
		if n := histPassesOf(db); n != 1 {
			t.Errorf("pointer %s: %d histogram counts, want 1", name, n)
		}
	}
}

// TestMisalignedPointerIsOneAnswer: a stored pointer inside S's objects
// but off an object boundary — 8 bytes into S0[3] — names no S object,
// nor does one into partition 5 of 2, and every reader of stored
// pointers says so the same way: a staging join (through the
// histogram), the floor (through its scan), Lookup, Verify, Workload and
// the index build all fail wrapping the dangling-pointer error, rather
// than folding the middle of S0[3], answering S0[3] or indexing past D.
// On a store indexed before the pointer was rewritten, index nested
// loops and VerifyIndexes, which follow it, fail the same way.
func TestMisalignedPointerIsOneAnswer(t *testing.T) {
	for name, bad := range map[string]func(db *DB) SPtr{
		"8 bytes into S0[3]": func(db *DB) SPtr { return SPtr{Part: 0, Off: db.S[0].PtrAt(3) + 8} },
		"partition 5 of 2":   func(db *DB) SPtr { return SPtr{Part: 5, Off: db.S[0].PtrAt(3)} },
	} {
		db, err := CreateDB(filepath.Join(t.TempDir(), "db"), 2, 100, 100, 64, 7)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		good := db.R[0].JoinAttr(0)
		db.R[0].SetJoinAttr(0, bad(db))
		for _, req := range []JoinRequest{{Algorithm: join.Grace}, floorReq} {
			if st, err := db.Run(req); !errors.Is(err, errBadPointer) {
				t.Errorf("%s: %v MRproc=%d: %+v, %v, want the dangling-pointer error", name, req.Algorithm, req.MRproc, st, err)
			}
		}
		if res, err := db.Lookup(0, 0); !errors.Is(err, errBadPointer) {
			t.Errorf("%s: lookup: %+v, %v, want the dangling-pointer error", name, res, err)
		}
		if err := db.Verify(); !errors.Is(err, errBadPointer) {
			t.Errorf("%s: verify: %v, want the dangling-pointer error", name, err)
		}
		if _, err := db.Workload(); !errors.Is(err, errBadPointer) {
			t.Errorf("%s: workload: %v, want the dangling-pointer error", name, err)
		}
		if err := db.BuildIndexes(context.Background(), nil); !errors.Is(err, errBadPointer) || db.HasIndexes() {
			t.Errorf("%s: index build: %v (indexed %v), want the dangling-pointer error", name, err, db.HasIndexes())
		}

		db.R[0].SetJoinAttr(0, good)
		if err := db.BuildIndexes(context.Background(), nil); err != nil {
			t.Fatalf("%s: index build of the restored store: %v", name, err)
		}
		db.R[0].SetJoinAttr(0, bad(db))
		if st, err := db.Run(JoinRequest{Algorithm: join.IndexNL}); !errors.Is(err, errBadPointer) {
			t.Errorf("%s: index-nl: %+v, %v, want the dangling-pointer error", name, st, err)
		}
		if err := db.VerifyIndexes(); !errors.Is(err, errBadPointer) {
			t.Errorf("%s: verify indexes: %v, want the dangling-pointer error", name, err)
		}
	}
}

// TestExpectedStatsSkipsDanglingPointers: the ground truth applies the
// one pointer rule too, so a row whose pointer names no S object — one
// into partition 7 of 4, one 8 bytes into S0[3] — adds no pair, rather
// than panicking or folding the middle of an object.
func TestExpectedStatsSkipsDanglingPointers(t *testing.T) {
	for name, bad := range map[string]func(db *DB) SPtr{
		"partition 7 of 4":   func(db *DB) SPtr { return SPtr{Part: 7, Off: db.S[0].PtrAt(3)} },
		"8 bytes into S0[3]": func(db *DB) SPtr { return SPtr{Part: 0, Off: db.S[0].PtrAt(3) + 8} },
	} {
		db := testDB(t, 4, 400)
		want := db.ExpectedStats()
		row, err := db.Lookup(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want.Pairs--
		want.Signature -= pairHash(row.RID, row.SWord)
		db.R[0].SetJoinAttr(0, bad(db))
		if got := db.ExpectedStats(); got != want || got.Pairs != int64(db.CountR()-1) {
			t.Errorf("pointer %s: %+v, want %+v (|R| − 1 pairs)", name, got, want)
		}
	}
}

// TestLookupRejectsDanglingPointers: Lookup applies the histogram's rule
// to the one pointer it follows, so a row that points into a relation
// header, past the last object or outside the segment fails with the
// dangling-pointer error instead of naming an S object that is not
// there or panicking on the access.
func TestLookupRejectsDanglingPointers(t *testing.T) {
	db, err := CreateDB(filepath.Join(t.TempDir(), "db"), 2, 100, 100, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s1 := db.S[1]
	want, err := db.Lookup(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, off := range map[string]Ptr{
		"in the relation header":    72,
		"at the end of the objects": s1.PtrAt(s1.Count()),
		"one object past the end":   s1.PtrAt(s1.Count() + 1),
		"in the segment header":     8,
		"outside the segment":       1 << 40,
	} {
		db.R[0].SetJoinAttr(3, SPtr{Part: 1, Off: off})
		if res, err := db.Lookup(0, 3); !errors.Is(err, errBadPointer) {
			t.Errorf("pointer %s: %+v, %v, want the dangling-pointer error", name, res, err)
		}
	}
	db.R[0].SetJoinAttr(3, SPtr{Part: 2, Off: s1.PtrAt(0)})
	if res, err := db.Lookup(0, 3); !errors.Is(err, errBadPointer) {
		t.Errorf("pointer to partition 2 of 2: %+v, %v, want the dangling-pointer error", res, err)
	}
	db.R[0].SetJoinAttr(3, SPtr{Part: want.SPart, Off: db.S[want.SPart].PtrAt(want.SIndex)})
	if got, err := db.Lookup(0, 3); err != nil || got != want {
		t.Errorf("restored pointer: %+v, %v, want %+v", got, err, want)
	}
}
