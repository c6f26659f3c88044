package mstore

import (
	"path/filepath"
	"testing"

	"mmjoin/internal/join"
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
	req := JoinRequest{Algorithm: join.Grace, MRproc: 4096}
	if err := req.withDefaults(db); err != nil {
		t.Fatal(err)
	}
	if req.K != 10 {
		t.Errorf("derived K = %d, want 10", req.K)
	}
	// TmpDir stays empty after defaulting: Run creates (and removes) a
	// per-call temp directory so concurrent default-TmpDir joins cannot
	// collide on the fixed bucket file names.
	if req.TmpDir != "" {
		t.Errorf("TmpDir defaulted to %q, want per-call MkdirTemp in Run", req.TmpDir)
	}
	// An ample grant collapses to one bucket; an explicit K wins.
	ample := JoinRequest{Algorithm: join.Grace, MRproc: 1 << 30}
	if err := ample.withDefaults(db); err != nil {
		t.Fatal(err)
	}
	if ample.K != 1 {
		t.Errorf("ample-memory K = %d, want 1", ample.K)
	}
	explicit := JoinRequest{Algorithm: join.Grace, MRproc: 4096, K: 3}
	if err := explicit.withDefaults(db); err != nil {
		t.Fatal(err)
	}
	if explicit.K != 3 {
		t.Errorf("explicit K overridden to %d", explicit.K)
	}
	// Hybrid-hash residency: the share of one S partition that fits.
	if got, want := db.deriveResident(8000), 8000.0/(1000*32); got != want {
		t.Errorf("resident fraction = %g, want %g", got, want)
	}
	if got := db.deriveResident(1 << 30); got != 1 {
		t.Errorf("ample-memory resident fraction = %g, want 1", got)
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
