package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/relation"
	"mmjoin/internal/sim"
)

// atProcs runs f with GOMAXPROCS set to n, the sweep's worker count,
// and restores the old value.
func atProcs[T any](n int, f func() (T, error)) (T, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

// sameAtProcs fails t unless f returns deeply equal results at
// GOMAXPROCS 2 and 4 as at 1, the one-worker loop.
func sameAtProcs[T any](t *testing.T, f func() (T, error)) {
	t.Helper()
	base, err := atProcs(1, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		got, err := atProcs(n, f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("GOMAXPROCS %d diverged from 1:\n got %+v\nwant %+v", n, got, base)
		}
	}
}

// TestParallelDeterminism asserts that a sweep returns field-for-field
// identical results whatever its worker count, for every panel and
// study. Simulated time is virtual, so nothing about host scheduling may
// leak into the output.
func TestParallelDeterminism(t *testing.T) {
	e := testExperiment(t, 2000)
	cfg := machine.DefaultConfig()
	cfg.Disk.Blocks = 40000
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 2000, 2000

	t.Run("fig5", func(t *testing.T) {
		fracs := []float64{0.03, 0.05, 0.10, 0.20}
		for _, alg := range []join.Algorithm{join.Grace, join.SortMerge} {
			sameAtProcs(t, func() ([]core.Comparison, error) {
				return Fig5(e, alg, Fig5Options{Fractions: fracs})
			})
		}
	})

	t.Run("contention", func(t *testing.T) {
		sameAtProcs(t, func() ([]ContentionPoint, error) { return Contention(e, 0.10) })
	})

	t.Run("speedup", func(t *testing.T) {
		sameAtProcs(t, func() (map[int]sim.Time, error) {
			return Speedup(cfg, spec, join.Grace, []int{1, 2, 4}, 0.05)
		})
	})

	t.Run("scaleup", func(t *testing.T) {
		sameAtProcs(t, func() (map[int]sim.Time, error) {
			return Scaleup(cfg, spec, join.Grace, []int{1, 2}, 2000, 0.05)
		})
	})

	t.Run("dist", func(t *testing.T) {
		sameAtProcs(t, func() ([]DistPoint, error) {
			return Dist(cfg, spec, []join.Algorithm{join.Grace}, 0.05)
		})
	})
}

// TestParallelHookOrder asserts that OnPoint fires in panel order from
// the calling goroutine even when points finish out of order on workers.
func TestParallelHookOrder(t *testing.T) {
	e := testExperiment(t, 2000)
	fracs := []float64{0.03, 0.05, 0.10, 0.20, 0.30}
	var seen []float64
	pts, err := Fig5(e, join.Grace, Fig5Options{
		Fractions: fracs,
		OnPoint: func(c core.Comparison, _ *metrics.Registry) error {
			seen = append(seen, c.MemFrac)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(fracs) {
		t.Fatalf("%d points", len(pts))
	}
	if len(seen) != len(fracs) {
		t.Fatalf("OnPoint fired %d times, want %d", len(seen), len(fracs))
	}
	for i, f := range fracs {
		if seen[i] != f {
			t.Fatalf("OnPoint order %v, want %v", seen, fracs)
		}
	}
}

// TestForEachCancellation checks the worker loop's failure semantics:
// the error of the lowest-indexed failing point is returned, points
// before it all run, and no point starts after the failure is observed.
func TestForEachCancellation(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := atProcs(3, func() (struct{}, error) {
		return struct{}{}, forEach(64, func(i int) error {
			ran.Add(1)
			if i == 5 {
				return fmt.Errorf("point %d: %w", i, boom)
			}
			if i > 5 {
				// Later points take real time, as sweep points do: with
				// empty ones the other workers can drain all 64 indexes
				// before the failing worker is scheduled again to record
				// its error.
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n == 64 {
		t.Error("cancellation did not stop the sweep")
	} else if n < 6 {
		t.Errorf("only %d points ran before the failing one finished", n)
	}

	// Two failures: the lowest point index wins regardless of timing.
	errA, errB := errors.New("a"), errors.New("b")
	_, err = atProcs(4, func() (struct{}, error) {
		return struct{}{}, forEach(8, func(i int) error {
			switch i {
			case 2:
				return errA
			case 3:
				return errB
			}
			return nil
		})
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want lowest-index error %v", err, errA)
	}
}
