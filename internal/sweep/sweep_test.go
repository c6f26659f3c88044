package sweep

import (
	"errors"
	"testing"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/relation"
)

func testExperiment(t *testing.T, nr int) *core.Experiment {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Disk.Blocks = 40000
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = nr, nr
	e, err := core.NewExperiment(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMemoryDefaults(t *testing.T) {
	e := testExperiment(t, 2000)
	pts, err := Fig5(e, join.Grace, Fig5Options{Fractions: []float64{0.05, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].MemFrac >= pts[1].MemFrac {
		t.Error("fractions not increasing")
	}
	if Fig5Fractions(join.NestedLoops)[0] != 0.10 ||
		Fig5Fractions(join.SortMerge)[0] != 0.010 ||
		Fig5Fractions(join.Grace)[0] != 0.008 {
		t.Error("Fig5Fractions panels wrong")
	}
	if Fig5Fractions(join.Algorithm(9)) != nil {
		t.Error("unknown algorithm should give nil panel")
	}
}

func TestFig5Hooks(t *testing.T) {
	e := testExperiment(t, 2000)
	var instrumented, seen []float64
	regs := map[float64]*metrics.Registry{}
	pts, err := Fig5(e, join.Grace, Fig5Options{
		Fractions: []float64{0.05, 0.2},
		Instrument: func(frac float64) *metrics.Registry {
			instrumented = append(instrumented, frac)
			regs[frac] = metrics.New()
			return regs[frac]
		},
		OnPoint: func(c core.Comparison, reg *metrics.Registry) error {
			seen = append(seen, c.MemFrac)
			if reg != regs[c.MemFrac] {
				t.Errorf("point %.2f got the wrong registry", c.MemFrac)
			}
			if len(reg.Samples()) == 0 {
				t.Errorf("point %.2f ran uninstrumented", c.MemFrac)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(instrumented) != 2 || len(seen) != 2 {
		t.Fatalf("points %d, instrumented %d, seen %d", len(pts), len(instrumented), len(seen))
	}

	// An OnPoint error aborts the sweep.
	boom := errors.New("boom")
	_, err = Fig5(e, join.Grace, Fig5Options{
		Fractions: []float64{0.05, 0.2},
		OnPoint:   func(core.Comparison, *metrics.Registry) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Errorf("OnPoint error not propagated: %v", err)
	}
}

func TestContentionStaggeringWins(t *testing.T) {
	e := testExperiment(t, 8000)
	pts, err := Contention(e, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d variants", len(pts))
	}
	if !pts[0].Stagger || pts[0].SyncPhase {
		t.Error("first variant should be the paper's (staggered, unsynchronized)")
	}
	paper, naive := pts[0].Elapsed, pts[2].Elapsed
	if float64(naive) < 1.2*float64(paper) {
		t.Errorf("staggering advantage lost: paper %v, naive %v", paper, naive)
	}
	// Synchronization is nearly free (the paper measured <= 0.5%).
	synced := pts[1].Elapsed
	if rel := abs(float64(synced-paper)) / float64(paper); rel > 0.10 {
		t.Errorf("synchronization cost %.1f%%, want small", 100*rel)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSpeedupImproves(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Disk.Blocks = 40000
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 8000, 8000
	times, err := Speedup(cfg, spec, join.Grace, []int{1, 4}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if times[4] >= times[1] {
		t.Errorf("no speedup: D=1 %v, D=4 %v", times[1], times[4])
	}
	sp := float64(times[1]) / float64(times[4])
	if sp < 2 {
		t.Errorf("speedup at D=4 only %.2fx", sp)
	}
}

func TestScaleupNearFlat(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Disk.Blocks = 40000
	spec := relation.DefaultSpec()
	times, err := Scaleup(cfg, spec, join.Grace, []int{1, 4}, 2000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(times[4]) / float64(times[1])
	if ratio > 1.6 {
		t.Errorf("scaleup degrades badly: D=1 %v, D=4 %v (ratio %.2f)",
			times[1], times[4], ratio)
	}
}

func TestDist(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Disk.Blocks = 40000
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 4000, 4000
	pts, err := Dist(cfg, spec, []join.Algorithm{join.Grace, join.SortMerge}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Dist != relation.Uniform {
		t.Error("first point should be uniform")
	}
	var hotSkew, uniSkew float64
	for _, pt := range pts {
		if len(pt.Measured) != 2 {
			t.Errorf("%v: %d measurements", pt.Dist, len(pt.Measured))
		}
		switch pt.Dist {
		case relation.Uniform:
			uniSkew = pt.Skew
		case relation.HotPartition:
			hotSkew = pt.Skew
		}
	}
	if hotSkew <= uniSkew {
		t.Errorf("hot-partition skew %.2f not above uniform %.2f", hotSkew, uniSkew)
	}
}
