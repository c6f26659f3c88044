package conformance

import (
	"math"
	"sync"
	"testing"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/sweep"
)

// The three panel tests share one experiment (workload generation plus
// machine calibration) and re-run the paper's sweeps through
// internal/sweep, so the procedure under test is exactly the one behind
// cmd/sweep.
var shared struct {
	once sync.Once
	e    *core.Experiment
	err  error
}

func experiment(t *testing.T) *core.Experiment {
	t.Helper()
	if testing.Short() {
		t.Skip("fig5 sweeps are the slow tier; skipped under -short")
	}
	shared.once.Do(func() {
		shared.e, shared.err = NewExperiment()
	})
	if shared.err != nil {
		t.Fatalf("experiment: %v", shared.err)
	}
	return shared.e
}

func sweepPanel(t *testing.T, alg join.Algorithm) []core.Comparison {
	t.Helper()
	cs, err := sweep.Fig5(experiment(t), alg, sweep.Fig5Options{})
	if err != nil {
		t.Fatalf("sweep %v: %v", alg, err)
	}
	if len(cs) == 0 {
		t.Fatalf("sweep %v: no points", alg)
	}
	return cs
}

// assertMonotoneImprovement checks that measured time never rises by more
// than MonotoneSlack as memory grows — Fig. 5's "more memory never
// hurts" shape.
func assertMonotoneImprovement(t *testing.T, cs []core.Comparison) {
	t.Helper()
	for i := 1; i < len(cs); i++ {
		limit := float64(cs[i-1].Measured) * (1 + MonotoneSlack)
		if float64(cs[i].Measured) > limit {
			t.Errorf("measured time rises with memory: %.2fs at %.3f but %.2fs at %.3f",
				cs[i-1].Measured.Seconds(), cs[i-1].MemFrac,
				cs[i].Measured.Seconds(), cs[i].MemFrac)
		}
	}
}

// TestFig5a asserts the nested-loops panel: monotone improvement with
// per-process memory, strong overall sensitivity (the paper's curve
// falls by roughly an order of magnitude across the axis), and
// model-vs-simulation agreement in the memory-starved regime where the
// model's assumptions hold.
func TestFig5a(t *testing.T) {
	cs := sweepPanel(t, join.NestedLoops)
	assertMonotoneImprovement(t, cs)
	first, last := cs[0].Measured, cs[len(cs)-1].Measured
	if first < 5*last {
		t.Errorf("memory sensitivity too weak: %.2fs at %.3f vs %.2fs at %.3f (want ≥ 5×)",
			first.Seconds(), cs[0].MemFrac, last.Seconds(), cs[len(cs)-1].MemFrac)
	}
	for _, c := range cs {
		if c.MemFrac > NLStarvedMax {
			continue
		}
		if e := math.Abs(c.RelError()); e > NLStarvedBand {
			t.Errorf("model error %.1f%% at fraction %.3f exceeds %.0f%% starved-regime band",
				100*c.RelError(), c.MemFrac, 100*NLStarvedBand)
		}
	}
}

// TestFig5b asserts the sort-merge panel: monotone improvement, the
// NPASS staircase (pass count non-increasing in memory, with at least
// one discontinuity inside the panel), and model agreement across the
// whole axis.
func TestFig5b(t *testing.T) {
	cs := sweepPanel(t, join.SortMerge)
	assertMonotoneImprovement(t, cs)
	passes := make(map[int]bool)
	for i, c := range cs {
		if c.Result.NPass <= 0 {
			t.Fatalf("no NPASS recorded at fraction %.3f", c.MemFrac)
		}
		passes[c.Result.NPass] = true
		if i > 0 && c.Result.NPass > cs[i-1].Result.NPass {
			t.Errorf("NPASS rises with memory: %d at %.3f but %d at %.3f",
				cs[i-1].Result.NPass, cs[i-1].MemFrac, c.Result.NPass, c.MemFrac)
		}
		if e := math.Abs(c.RelError()); e > SMBand {
			t.Errorf("model error %.1f%% at fraction %.3f exceeds %.0f%% band",
				100*c.RelError(), c.MemFrac, 100*SMBand)
		}
	}
	if len(passes) < 2 {
		t.Errorf("panel shows a single NPASS value %v; expected the Fig. 5(b) pass discontinuity",
			passes)
	}
}

// TestFig5c asserts the Grace panel: the thrashing knee at the
// memory-starved end (the panel's lowest fraction measures at least
// GraceKneeFactor times the plateau minimum), monotone improvement and
// model agreement on the plateau, and — at the knee itself — only the
// error's sign: the urn model underpredicts measured thrash, matching
// the direction the paper reports.
func TestFig5c(t *testing.T) {
	cs := sweepPanel(t, join.Grace)
	knee := cs[0]
	plateauMin := knee.Measured
	var plateau []core.Comparison
	for _, c := range cs {
		if c.MemFrac >= GracePlateauMin {
			plateau = append(plateau, c)
			if c.Measured < plateauMin {
				plateauMin = c.Measured
			}
		}
	}
	if len(plateau) == 0 {
		t.Fatal("no plateau points at or above GracePlateauMin")
	}
	if float64(knee.Measured) < GraceKneeFactor*float64(plateauMin) {
		t.Errorf("no thrashing knee: %.2fs at %.3f vs plateau minimum %.2fs (want ≥ %.0f×)",
			knee.Measured.Seconds(), knee.MemFrac, plateauMin.Seconds(), GraceKneeFactor)
	}
	if knee.RelError() >= 0 {
		t.Errorf("model should underpredict the knee's thrash; got %+.1f%% at %.3f",
			100*knee.RelError(), knee.MemFrac)
	}
	assertMonotoneImprovement(t, plateau)
	for _, c := range plateau {
		if e := math.Abs(c.RelError()); e > GracePlateauBand {
			t.Errorf("model error %.1f%% at fraction %.3f exceeds %.0f%% plateau band",
				100*c.RelError(), c.MemFrac, 100*GracePlateauBand)
		}
	}
}

// TestFig5Orderings asserts the cross-algorithm claims at the memory
// extremes: with memory scarce the hash-based algorithm wins and nested
// loops is worst (grace < sort-merge < nested loops at 5% of |R|·r);
// with memory abundant nested loops wins (nested loops < grace <
// sort-merge at 70%).
func TestFig5Orderings(t *testing.T) {
	e := experiment(t)
	measure := func(alg join.Algorithm, frac float64) float64 {
		t.Helper()
		res, err := e.Measure(alg, e.ParamsForFraction(frac))
		if err != nil {
			t.Fatalf("%v at %.2f: %v", alg, frac, err)
		}
		return res.Elapsed.Seconds()
	}
	assertOrder := func(frac float64, order []join.Algorithm) {
		t.Helper()
		prev := -1.0
		prevAlg := join.Algorithm(-1)
		for _, alg := range order {
			s := measure(alg, frac)
			if s <= prev {
				t.Errorf("at fraction %.2f want %v slower than %v; got %.2fs vs %.2fs",
					frac, alg, prevAlg, s, prev)
			}
			prev, prevAlg = s, alg
		}
	}
	assertOrder(0.05, []join.Algorithm{join.Grace, join.SortMerge, join.NestedLoops})
	assertOrder(0.70, []join.Algorithm{join.NestedLoops, join.Grace, join.SortMerge})
}
