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
)

// parallelisms are the worker counts the determinism tests compare: the
// sequential baseline, a fixed small pool, and whatever this host offers.
func parallelisms() []int {
	ps := []int{1, 2}
	if g := runtime.GOMAXPROCS(0); g > 2 {
		ps = append(ps, g)
	}
	return ps
}

// TestParallelDeterminism asserts the tentpole guarantee: a host-parallel
// sweep returns field-for-field identical results to the sequential one,
// for every panel and study, at every worker count. Simulated time is
// virtual, so nothing about host scheduling may leak into the output.
func TestParallelDeterminism(t *testing.T) {
	e := testExperiment(t, 2000)
	cfg := machine.DefaultConfig()
	cfg.Disk.Blocks = 40000
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 2000, 2000

	t.Run("fig5", func(t *testing.T) {
		fracs := []float64{0.03, 0.05, 0.10, 0.20}
		for _, alg := range []join.Algorithm{join.Grace, join.SortMerge} {
			base, err := Fig5(e, alg, Fig5Options{Fractions: fracs, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range parallelisms()[1:] {
				got, err := Fig5(e, alg, Fig5Options{Fractions: fracs, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%v: parallelism %d diverged from sequential:\n got %+v\nwant %+v",
						alg, par, got, base)
				}
			}
		}
	})

	t.Run("contention", func(t *testing.T) {
		base, err := Contention(e, 0.10, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parallelisms()[1:] {
			got, err := Contention(e, 0.10, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("parallelism %d diverged: got %+v want %+v", par, got, base)
			}
		}
	})

	t.Run("speedup", func(t *testing.T) {
		ds := []int{1, 2, 4}
		base, err := Speedup(cfg, spec, join.Grace, ds, 0.05, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parallelisms()[1:] {
			got, err := Speedup(cfg, spec, join.Grace, ds, 0.05, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("parallelism %d diverged: got %v want %v", par, got, base)
			}
		}
	})

	t.Run("scaleup", func(t *testing.T) {
		ds := []int{1, 2}
		base, err := Scaleup(cfg, spec, join.Grace, ds, 2000, 0.05, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parallelisms()[1:] {
			got, err := Scaleup(cfg, spec, join.Grace, ds, 2000, 0.05, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("parallelism %d diverged: got %v want %v", par, got, base)
			}
		}
	})

	t.Run("dist", func(t *testing.T) {
		base, err := Dist(cfg, spec, []join.Algorithm{join.Grace}, 0.05, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parallelisms()[1:] {
			got, err := Dist(cfg, spec, []join.Algorithm{join.Grace}, 0.05, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("parallelism %d diverged: got %+v want %+v", par, got, base)
			}
		}
	})
}

// TestParallelHookOrder asserts that OnPoint fires in panel order from
// the calling goroutine even when points finish out of order on workers.
func TestParallelHookOrder(t *testing.T) {
	e := testExperiment(t, 2000)
	fracs := []float64{0.03, 0.05, 0.10, 0.20, 0.30}
	var seen []float64
	pts, err := Fig5(e, join.Grace, Fig5Options{
		Fractions:   fracs,
		Parallelism: 4,
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

// TestForEachCancellation checks the worker pool's failure semantics:
// the error of the lowest-indexed failing point is returned, points
// before it all run, and no point starts after the failure is observed.
func TestForEachCancellation(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := forEach(Options{Parallelism: 3}, 64, func(i int) error {
		ran.Add(1)
		if i == 5 {
			return fmt.Errorf("point %d: %w", i, boom)
		}
		if i > 5 {
			// Later points take real time, as sweep points do: with empty
			// ones the other workers can drain all 64 indexes before the
			// failing worker is scheduled again to record its error.
			time.Sleep(time.Millisecond)
		}
		return nil
	}, nil)
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
	err = forEach(Options{Parallelism: 4}, 8, func(i int) error {
		switch i {
		case 2:
			return errA
		case 3:
			return errB
		}
		return nil
	}, nil)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want lowest-index error %v", err, errA)
	}

	// An emit error cancels too, and emit stops firing afterwards.
	var emitted []int
	err = forEach(Options{Parallelism: 2}, 32, func(i int) error { return nil },
		func(i int) error {
			emitted = append(emitted, i)
			if i == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("emit err = %v, want %v", err, boom)
	}
	if len(emitted) != 2 || emitted[0] != 0 || emitted[1] != 1 {
		t.Errorf("emit calls %v, want [0 1]", emitted)
	}
}
