package model

import (
	"strings"
	"testing"
)

func TestDeriveIndexGeometry(t *testing.T) {
	// One leaf, root-only tree.
	if g := deriveIndex(100, 253); g.leaves != 1 || g.upper != 0 || g.height != 1 {
		t.Errorf("small tree geometry: %+v", g)
	}
	// 25600 keys at fanout 253: 102 leaves, one root above them.
	g := deriveIndex(25600, 253)
	if g.leaves != 102 || g.upper != 1 || g.height != 2 {
		t.Errorf("two-level geometry: %+v", g)
	}
	// Deep tree: each level shrinks by ~fanout.
	deep := deriveIndex(1e9, 253)
	if deep.height < 3 || deep.upper <= 0 {
		t.Errorf("deep geometry: %+v", deep)
	}
}

func TestPredictIndexConsistency(t *testing.T) {
	c := calibForTest(t)
	for name, f := range map[string]func(Calibration, Inputs) (*Prediction, error){
		"index-nl": PredictIndexNL, "index-merge": PredictIndexMerge,
	} {
		p, err := f(c, defaultInputs(1<<20))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.CheckConsistency(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Neither index path stages temporaries: no component may carry a
		// write cost — that absence is the structural crossover against
		// the partitioned algorithms.
		for _, comp := range p.Components {
			if strings.Contains(comp.Name, "write") || strings.Contains(comp.Name, "spill") {
				t.Errorf("%s has a staging component %q", name, comp.Name)
			}
		}
	}
}

// denseProbeInputs is the index paths' winning regime: probes dense
// relative to the partition's pages (every fault amortizes over many
// probes) at memory scarce enough that the grid and staging plans pay
// re-scans and temporary passes the index paths never issue. It mirrors
// the benchmarked `mmdb join -alg auto` workload that picks index-nl.
func denseProbeInputs() Inputs {
	return Inputs{
		NR: 20480, NS: 20480, R: 128, S: 128, Ptr: 8,
		D: 4, Skew: 1, MRproc: 1 << 20,
	}
}

// In the dense-probe regime the index-NL analysis must undercut every
// non-index plan: it touches each S partition's pages at most once per
// residency (probes reuse faults) while paying no grid re-scans, no run
// formation, and no partition writes.
func TestPredictIndexNLWinsDenseProbes(t *testing.T) {
	c := calibForTest(t)
	in := denseProbeInputs()
	inl, err := PredictIndexNL(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(Calibration, Inputs) (*Prediction, error){
		"nested-loops": PredictNestedLoops, "sort-merge": PredictSortMerge,
		"grace": PredictGrace, "hybrid-hash": PredictHybridHash,
	} {
		p, err := f(c, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inl.Total >= p.Total {
			t.Errorf("index-nl %v not below %s %v in the dense-probe regime", inl.Total, name, p.Total)
		}
	}

	// The cost must actually track |R|: with S fixed, a 4x bigger R side
	// must be at least twice as dear (probes dominate).
	big := in
	big.NR = 4 * in.NR
	bnl, err := PredictIndexNL(c, big)
	if err != nil {
		t.Fatal(err)
	}
	if float64(bnl.Total) < 2*float64(inl.Total) {
		t.Errorf("index-nl not R-proportional: 4x R gives %v vs %v", bnl.Total, inl.Total)
	}
}

// Index-merge reads both sides' leaf chains once in key order: the sort
// the sort-merge join performs at run time was paid at bulk-load, so in
// the same regime it must beat sort-merge, and its cost must grow with
// the S side it zips against.
func TestPredictIndexMergeBeatsSortMerge(t *testing.T) {
	c := calibForTest(t)
	in := denseProbeInputs()
	im, err := PredictIndexMerge(c, in)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := PredictSortMerge(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if im.Total >= sm.Total {
		t.Errorf("pre-sorted leaf chains should beat a run-forming sort-merge: %v vs %v", im.Total, sm.Total)
	}
	big := in
	big.NS = 4 * in.NS
	bim, err := PredictIndexMerge(c, big)
	if err != nil {
		t.Fatal(err)
	}
	if bim.Total <= im.Total {
		t.Errorf("index-merge cost did not grow with |S|: %v vs %v", bim.Total, im.Total)
	}
}
