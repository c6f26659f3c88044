package mstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mmjoin/internal/join"
)

// hotKeyDB rewrites db's pointers the way zipfDB does, at any D: half of
// all references to one S object, the rest spread over every partition.
func hotKeyDB(db *DB) *DB {
	hot := SPtr{Part: 0, Off: db.S[0].PtrAt(db.S[0].Count() / 2)}
	n, u := 0, 0
	for _, ri := range db.R {
		for x := range ri.Count() {
			if n%2 == 0 {
				ri.SetJoinAttr(x, hot)
			} else {
				part := u % db.D
				ri.SetJoinAttr(x, SPtr{Part: uint32(part), Off: db.S[part].PtrAt(u % db.S[part].Count())})
				u++
			}
			n++
		}
	}
	return db
}

// TestExplainMatchesRun: for every staging operator, on uniform and
// hot-key stores at D = 1, 3 and 4, over a sweep of grants from
// unbounded through a page to one that makes hybrid hash fully resident
// (f0 = 1), with the derived K and an explicit one past a pass's
// fan-out, Explain reports the configuration read afresh off the
// histogram — K,
// f0, staged references and arena bytes — and Run then stages exactly
// that: one arena file exactly when a reference stages, of the bytes
// Explain names, with the exact result.
func TestExplainMatchesRun(t *testing.T) {
	p := newPool(t, 2)
	for _, d := range []int{1, 3, 4} {
		for _, skew := range []bool{false, true} {
			db := testDB(t, d, 6000)
			if skew {
				hotKeyDB(db)
			}
			want := db.ExpectedStats()
			h := histOf(t, db)
			for _, alg := range stagingAlgs {
				for _, mrproc := range []int64{0, 4096, 32 << 10, 1 << 40} {
					for _, k := range []int{0, 300} {
						name := fmt.Sprintf("D=%d skew=%v %v MRproc=%d K=%d", d, skew, alg, mrproc, k)
						req := JoinRequest{Algorithm: alg, MRproc: mrproc, K: k, Pool: p}
						plan, err := db.Explain(req)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						cfg := h.configure(db.planKey(h, req, p.Workers()))
						staged := int64(cfg.starts[d*cfg.k])
						_, f0 := db.plan(alg, k, mrproc)
						if alg != join.HybridHash {
							f0 = 0
						}
						if plan.K != cfg.k || plan.F0 != f0 || plan.Staged != staged ||
							plan.Resident+plan.Staged != int64(db.CountR()) {
							t.Fatalf("%s: explained %+v, the layout has K=%d f0=%g staged=%d of %d",
								name, plan, cfg.k, f0, staged, db.CountR())
						}
						if alg == join.NestedLoops && plan.Moves != 0 || plan.PredictedNs <= 0 {
							t.Fatalf("%s: explained %+v", name, plan)
						}

						var tel JoinTelemetry
						req.Telemetry, req.TmpDir = &tel, filepath.Join(t.TempDir(), "tmp")
						st, err := db.Run(req)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if st != want {
							t.Fatalf("%s: %+v, want %+v", name, st, want)
						}
						if files := tel.TempFiles.Load(); (files == 1) != (staged > 0) || files > 1 {
							t.Fatalf("%s: %d temp files for %d staged references", name, files, staged)
						}

						r, done := newTestRun(t, db, 2, nil)
						if err := stagedJob(r, cfg); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						arena := int64(0)
						if r.tmp.seg != nil {
							arena = r.tmp.seg.Size()
						}
						done()
						if arena != plan.ArenaBytes {
							t.Fatalf("%s: the arena holds %d bytes, explained %d", name, arena, plan.ArenaBytes)
						}
					}
				}
			}
		}
	}
}

// TestExplainIndexJoins: the index joins stage nothing and are priced on
// the profile's index kernels; an unindexed store refuses them as Run
// does, and nobody explains auto.
func TestExplainIndexJoins(t *testing.T) {
	db := testDB(t, 3, 3000)
	for _, alg := range []join.Algorithm{join.IndexNL, join.IndexMerge, join.Auto, join.TraditionalGrace} {
		if _, err := db.Explain(JoinRequest{Algorithm: alg}); err == nil {
			t.Errorf("%v explained on an unindexed store", alg)
		}
	}
	if err := db.BuildIndexes(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []join.Algorithm{join.IndexNL, join.IndexMerge} {
		plan, err := db.Explain(JoinRequest{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Resident != int64(db.CountR()) || plan.Staged != 0 || plan.ArenaBytes != 0 || plan.K != 0 || plan.PredictedNs <= 0 {
			t.Errorf("%v: explained %+v", alg, plan)
		}
	}
}

func profPassesOf(db *DB) int {
	db.profMu.Lock()
	defer db.profMu.Unlock()
	return db.profPasses
}

// TestProfileMeasuredOnce: a handle measures its profile at its first
// Explain and never again — not when eight concurrent first calls race
// for it, and not over the twelve sequential calls after them — and
// every call prices the same plan the same. A measurement stopped by
// its context caches nothing and the next call measures again. The
// profile's temporaries leave nothing in the store's directory.
func TestProfileMeasuredOnce(t *testing.T) {
	db := makeDB(t, 6000)
	p := newPool(t, 2)
	explain := func(g int) (Plan, error) {
		return db.Explain(JoinRequest{Algorithm: stagingAlgs[g%len(stagingAlgs)], MRproc: 19200, Pool: p})
	}
	plans := make([]Plan, 20)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if plans[g], err = explain(g); err != nil {
				t.Errorf("concurrent Explain %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
	for g := 8; g < len(plans); g++ {
		var err error
		if plans[g], err = explain(g); err != nil {
			t.Fatalf("sequential Explain %d: %v", g, err)
		}
	}
	if n := profPassesOf(db); n != 1 {
		t.Fatalf("20 Explains measured the profile %d times, want once", n)
	}
	for g := len(stagingAlgs); g < len(plans); g++ {
		if plans[g] != plans[g%len(stagingAlgs)] {
			t.Errorf("Explain %d: %+v, Explain %d: %+v", g, plans[g], g%len(stagingAlgs), plans[g%len(stagingAlgs)])
		}
	}
	if left, _ := filepath.Glob(filepath.Join(db.Dir, "arena-*.seg")); len(left) != 0 {
		t.Errorf("the profile left %v behind", left)
	}

	db = makeDB(t, 6000)
	histOf(t, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Explain(JoinRequest{Algorithm: join.Grace, Pool: p, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Explain under a cancelled context returned %v", err)
	}
	if db.prof != nil {
		t.Fatal("a cancelled measurement was cached")
	}
	if _, err := db.Explain(JoinRequest{Algorithm: join.Grace, Pool: p}); err != nil {
		t.Fatal(err)
	}
	if n := profPassesOf(db); n != 2 || db.prof == nil {
		t.Fatalf("%d measurements, cached %v: want the cancelled one and its redo", n, db.prof != nil)
	}

	// A TmpDir is where the service's joins stage: the profile prices the
	// arena there, and leaves nothing there or in the store's directory.
	db = makeDB(t, 6000)
	tmp := filepath.Join(t.TempDir(), "tmp")
	if _, err := db.Explain(JoinRequest{Algorithm: join.Grace, Pool: p, TmpDir: tmp}); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("the profile's TmpDir: %v, holding %v", err, left)
	}
	if left, _ := filepath.Glob(filepath.Join(db.Dir, "arena-*.seg")); len(left) != 0 {
		t.Errorf("the profile left %v in the store's directory", left)
	}
}

// TestProfileHotWindowPastAMorsel: on a hot-key store the profile's
// window sample holds an extent of more than a morsel, which orderProbe
// probes through further tasks of the job. The measurement must still
// join every sampled reference exactly once; under -race it also shows
// those tasks share no accumulator with a probe running beside them.
func TestProfileHotWindowPastAMorsel(t *testing.T) {
	db := hotKeyDB(testDB(t, 4, 40000))
	p := newPool(t, 2)
	h, err := countHist(context.Background(), db, p, sampleThird(db, 2))
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, n := range h.cells[0] {
		hot = max(hot, n)
	}
	if hot <= morselObjs {
		t.Fatalf("the window sample's hot cell holds %d references, want more than a morsel (%d)", hot, morselObjs)
	}
	for _, alg := range stagingAlgs {
		if _, err := db.Explain(JoinRequest{Algorithm: alg, Pool: p}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
	if n := profPassesOf(db); n != 1 {
		t.Fatalf("%d measurements, want one", n)
	}
}

// TestLayoutCacheBoundedByBytes: the layouts of client-chosen Ks up to
// |R|/D stay within maxLayoutBytes on the handle, and the cache's byte
// count is what its layouts hold. Past one scan's fan-out a layout holds
// the scan's destinations, not K buckets.
func TestLayoutCacheBoundedByBytes(t *testing.T) {
	db := testDB(t, 4, 40000)
	h := histOf(t, db)
	for k := 1; k <= db.CountR()/db.D; k += 997 {
		l := h.layout(db.planKey(h, JoinRequest{Algorithm: join.Grace, K: k}, 1))
		if l.k != stagedK(k) {
			t.Fatalf("K=%d: the layout has K=%d, want %d", k, l.k, stagedK(k))
		}
		h.layoutsMu.Lock()
		held, n := h.layoutBytes, 0
		for _, c := range h.layouts {
			n += c.cfg.bytes()
		}
		h.layoutsMu.Unlock()
		if held != n || held > maxLayoutBytes {
			t.Fatalf("K=%d: the cache counts %d bytes, its layouts hold %d, bound %d", k, held, n, maxLayoutBytes)
		}
	}
}
