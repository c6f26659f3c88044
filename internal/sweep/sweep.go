// Package sweep is the reusable sweep layer behind the paper's
// evaluation experiments: the Fig. 5 memory sweeps (model vs simulated
// experiment per panel), the §5.1 contention ablation, the §9 speedup
// and scaleup studies, and the reference-distribution extension.
//
// cmd/sweep is a thin printer over this package, and
// internal/conformance re-runs scaled-down panels through it to assert
// the paper's qualitative claims as code, so the same sweep procedure
// backs the CLI, the benchmarks, and the conformance suite.
package sweep

import (
	"fmt"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/relation"
	"mmjoin/internal/sim"
)

// Fig5Fractions returns the memory fractions of the paper's Fig. 5 panel
// for the given algorithm.
func Fig5Fractions(alg join.Algorithm) []float64 {
	switch alg {
	case join.NestedLoops:
		return []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70}
	case join.SortMerge:
		return []float64{0.010, 0.015, 0.020, 0.025, 0.030, 0.035, 0.040, 0.045, 0.050}
	case join.HybridHash:
		return []float64{0.008, 0.010, 0.015, 0.020, 0.030, 0.040, 0.050, 0.060, 0.070, 0.080}
	case join.Grace:
		// The paper's panel spans 0.02–0.08; lower fractions are
		// included because this machine's LRU pager thrashes later than
		// Dynix's simple replacement did, so the knee of Fig. 5(c)
		// appears below 0.02 here.
		return []float64{0.008, 0.010, 0.015, 0.020, 0.030, 0.040, 0.050, 0.060, 0.070, 0.080}
	}
	return nil
}

// Fig5Options tunes one panel run. The zero value selects the paper's
// fractions with no per-point instrumentation.
type Fig5Options struct {
	// Fractions overrides the panel's memory fractions (nil selects
	// Fig5Fractions for the algorithm).
	Fractions []float64
	// Instrument, when non-nil, is called for each fraction, in panel
	// order on the calling goroutine before any point runs, and returns
	// the telemetry registry to attach to that point's run (nil attaches
	// none).
	Instrument func(frac float64) *metrics.Registry
	// OnPoint, when non-nil, is called for each point once the whole
	// panel has run — in panel order, on the calling goroutine — with its
	// comparison and the registry Instrument returned (nil without
	// Instrument). The first error it returns is Fig5's.
	OnPoint func(c core.Comparison, reg *metrics.Registry) error
}

// Fig5 runs one Fig. 5 panel: Compare (simulate + predict) at every
// fraction of the panel, with optional per-point telemetry.
func Fig5(e *core.Experiment, alg join.Algorithm, opts Fig5Options) ([]core.Comparison, error) {
	fracs := opts.Fractions
	if fracs == nil {
		fracs = Fig5Fractions(alg)
	}
	out := make([]core.Comparison, len(fracs))
	regs := make([]*metrics.Registry, len(fracs))
	if opts.Instrument != nil {
		for i, f := range fracs {
			regs[i] = opts.Instrument(f)
		}
	}
	err := forEach(len(fracs), func(i int) error {
		prm := e.ParamsForFraction(fracs[i])
		prm.Metrics = regs[i]
		c, err := e.Compare(alg, prm)
		if err != nil {
			return fmt.Errorf("sweep: %v at %.3f: %w", alg, fracs[i], err)
		}
		out[i] = *c
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opts.OnPoint != nil {
		for i := range out {
			if err := opts.OnPoint(out[i], regs[i]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ContentionVariant is one arm of the §5.1 staggering/synchronization
// ablation.
type ContentionVariant struct {
	Name               string
	Stagger, SyncPhase bool
}

// ContentionVariants returns the ablation's arms in presentation order;
// the first is the paper's configuration (the comparison baseline).
func ContentionVariants() []ContentionVariant {
	return []ContentionVariant{
		{Name: "staggered, unsynchronized (paper)", Stagger: true},
		{Name: "staggered, synchronized", Stagger: true, SyncPhase: true},
		{Name: "naive order, unsynchronized"},
	}
}

// ContentionPoint is one measured arm of the contention ablation.
type ContentionPoint struct {
	ContentionVariant
	Elapsed sim.Time
}

// Contention runs the §5.1 ablation for nested loops at the given memory
// fraction: pass-1 phase staggering on/off and per-phase synchronization
// on/off. The first returned point is the paper's variant.
func Contention(e *core.Experiment, frac float64) ([]ContentionPoint, error) {
	vs := ContentionVariants()
	out := make([]ContentionPoint, len(vs))
	err := forEach(len(vs), func(i int) error {
		v := vs[i]
		prm := e.ParamsForFraction(frac)
		prm.Stagger = v.Stagger
		prm.SyncPhases = v.SyncPhase
		res, err := e.Measure(join.NestedLoops, prm)
		if err != nil {
			return fmt.Errorf("sweep: contention %q: %w", v.Name, err)
		}
		out[i] = ContentionPoint{ContentionVariant: v, Elapsed: res.Elapsed}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Speedup runs the algorithm at several degrees of parallelism D with the
// problem size fixed, returning elapsed times keyed by D — the paper's
// planned speedup experiment (§9).
func Speedup(base machine.Config, spec relation.Spec, alg join.Algorithm,
	ds []int, memFrac float64) (map[int]sim.Time, error) {
	return overD(base, alg, ds, memFrac, func(d int) relation.Spec {
		sp := spec
		sp.D = d
		return sp
	})
}

// Scaleup grows the problem with D (NR = NS = perPartition·D) and returns
// elapsed times keyed by D; flat times mean perfect scaleup.
func Scaleup(base machine.Config, spec relation.Spec, alg join.Algorithm,
	ds []int, perPartition int, memFrac float64) (map[int]sim.Time, error) {
	return overD(base, alg, ds, memFrac, func(d int) relation.Spec {
		sp := spec
		sp.D = d
		sp.NR = perPartition * d
		sp.NS = perPartition * d
		return sp
	})
}

// overD runs alg once per D in ds on the workload specAt(D) generates,
// granting each Rproc memFrac of |R|, and returns elapsed times keyed
// by D.
func overD(base machine.Config, alg join.Algorithm, ds []int, memFrac float64,
	specAt func(d int) relation.Spec) (map[int]sim.Time, error) {
	times := make([]sim.Time, len(ds))
	err := forEach(len(ds), func(i int) error {
		cfg := base
		cfg.D = ds[i]
		sp := specAt(ds[i])
		w, err := relation.Generate(sp)
		if err != nil {
			return err
		}
		mem := int64(memFrac * float64(int64(sp.NR)*int64(sp.RSize)))
		res, err := join.Request{
			Algorithm: alg,
			Config:    cfg,
			Params:    join.Params{Workload: w, MRproc: mem, Stagger: true},
		}.Run()
		if err != nil {
			return err
		}
		times[i] = res.Elapsed
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]sim.Time, len(ds))
	for i, d := range ds {
		out[d] = times[i]
	}
	return out, nil
}

// DistPoint is one row of the reference-distribution study (§9 future
// work: "changing the nature of the joining relations").
type DistPoint struct {
	Dist     relation.Distribution
	Skew     float64
	Measured map[join.Algorithm]sim.Time
}

// Dist runs every algorithm across reference distributions at the given
// memory fraction, reporting measured times and workload skew.
func Dist(cfg machine.Config, base relation.Spec, algs []join.Algorithm,
	memFrac float64) ([]DistPoint, error) {
	specs := []relation.Spec{base}
	zipf := base
	zipf.Dist = relation.Zipf
	zipf.ZipfTheta = 1.5
	local := base
	local.Dist = relation.Local
	local.LocalFrac = 0.8
	hot := base
	hot.Dist = relation.HotPartition
	hot.HotFrac = 0.4
	specs = append(specs, zipf, local, hot)

	out := make([]DistPoint, len(specs))
	err := forEach(len(specs), func(i int) error {
		spec := specs[i]
		w, err := relation.Generate(spec)
		if err != nil {
			return err
		}
		mem := int64(memFrac * float64(int64(spec.NR)*int64(spec.RSize)))
		pt := DistPoint{Dist: spec.Dist, Skew: w.Skew(), Measured: map[join.Algorithm]sim.Time{}}
		wantSig, _ := w.JoinSignature()
		for _, alg := range algs {
			res, err := join.Request{
				Algorithm: alg,
				Config:    cfg,
				Params:    join.Params{Workload: w, MRproc: mem, Stagger: true},
			}.Run()
			if err != nil {
				return err
			}
			if res.Signature != wantSig {
				return fmt.Errorf("sweep: %v computed a wrong join under %v", alg, spec.Dist)
			}
			pt.Measured[alg] = res.Elapsed
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
