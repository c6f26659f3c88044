package mmjoin

// Integration regression tests at the paper's full scale. They take a
// few seconds each and are skipped under -short; the asserted bands
// mirror EXPERIMENTS.md so a regression in any layer (disk model, pager,
// algorithms, analytical model) surfaces here.

import (
	"math"
	"path/filepath"
	"testing"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/mstore"
	"mmjoin/internal/relation"
)

func paperExperiment(t *testing.T) *core.Experiment {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-scale integration test")
	}
	e, err := core.NewExperiment(machine.DefaultConfig(), relation.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func assertBand(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.1f outside [%.1f, %.1f]", name, got, lo, hi)
	}
}

func TestPaperScaleNestedLoopsBand(t *testing.T) {
	e := paperExperiment(t)
	cmp, err := e.Compare(join.NestedLoops, e.ParamsForFraction(0.10))
	if err != nil {
		t.Fatal(err)
	}
	assertBand(t, "nl experiment @0.10", cmp.Measured.Seconds(), 280, 440)
	if re := math.Abs(cmp.RelError()); re > 0.15 {
		t.Errorf("nl model error %.2f at low memory, want <= 0.15", re)
	}
	hi, err := e.Measure(join.NestedLoops, e.ParamsForFraction(0.50))
	if err != nil {
		t.Fatal(err)
	}
	if float64(cmp.Measured) < 5*float64(hi.Elapsed) {
		t.Errorf("nl memory sensitivity lost: %.0fs -> %.0fs",
			cmp.Measured.Seconds(), hi.Elapsed.Seconds())
	}
}

func TestPaperScaleSortMergeBandAndDiscontinuity(t *testing.T) {
	e := paperExperiment(t)
	lo, err := e.Compare(join.SortMerge, e.ParamsForFraction(0.010))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := e.Compare(join.SortMerge, e.ParamsForFraction(0.030))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Result.NPass <= mid.Result.NPass {
		t.Errorf("merge-pass discontinuity lost: NPASS %d -> %d",
			lo.Result.NPass, mid.Result.NPass)
	}
	for _, cmp := range []*core.Comparison{lo, mid} {
		if re := math.Abs(cmp.RelError()); re > 0.20 {
			t.Errorf("sm model error %.2f at f=%.3f", re, cmp.MemFrac)
		}
	}
}

func TestPaperScaleGraceKneeAndPlateau(t *testing.T) {
	e := paperExperiment(t)
	knee, err := e.Measure(join.Grace, e.ParamsForFraction(0.008))
	if err != nil {
		t.Fatal(err)
	}
	plateau, err := e.Compare(join.Grace, e.ParamsForFraction(0.040))
	if err != nil {
		t.Fatal(err)
	}
	if float64(knee.Elapsed) < 3*float64(plateau.Measured) {
		t.Errorf("thrashing knee lost: %.0fs vs plateau %.0fs",
			knee.Elapsed.Seconds(), plateau.Measured.Seconds())
	}
	if re := math.Abs(plateau.RelError()); re > 0.25 {
		t.Errorf("grace plateau model error %.2f", re)
	}
}

func TestPaperScaleAlgorithmOrdering(t *testing.T) {
	e := paperExperiment(t)
	prm := e.ParamsForFraction(0.05)
	nl, err := e.Measure(join.NestedLoops, prm)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := e.Measure(join.SortMerge, prm)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := e.Measure(join.Grace, prm)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Measure(join.TraditionalGrace, prm)
	if err != nil {
		t.Fatal(err)
	}
	if !(gr.Elapsed < sm.Elapsed && sm.Elapsed < nl.Elapsed) {
		t.Errorf("Fig 5 ordering lost: grace %v, sm %v, nl %v",
			gr.Elapsed, sm.Elapsed, nl.Elapsed)
	}
	if float64(tr.Elapsed) < 1.5*float64(gr.Elapsed) {
		t.Errorf("pointer advantage lost: traditional %v vs grace %v", tr.Elapsed, gr.Elapsed)
	}
	// All compute the same join.
	sig, pairs := e.W.JoinSignature()
	for _, res := range []*join.Result{nl, sm, gr, tr} {
		if res.Signature != sig || res.Pairs != pairs {
			t.Fatalf("%v computed a wrong join", res.Algorithm)
		}
	}
}

func TestRealStorePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("io heavy")
	}
	dir := t.TempDir()
	db, err := mstore.CreateDB(filepath.Join(dir, "db"), 4, 102400, 102400, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := db.ExpectedStats()
	tmp := filepath.Join(dir, "tmp")
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash} {
		// MRproc is half an S partition (25,600 × 128 B): 0.5 resident.
		st, err := db.Run(mstore.JoinRequest{Algorithm: alg, K: 32, MRproc: 1600 << 10, TmpDir: tmp})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if st != want {
			t.Errorf("%v: wrong join at paper scale", alg)
		}
	}
}
