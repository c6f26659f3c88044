package mmjoin

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations of the design decisions called out in
// DESIGN.md. Simulated experiments run at a reduced default scale
// (|R| = |S| = 20480) so `go test -bench .` completes quickly; set
// -paperscale to run the full 102,400-object configuration of §8.
// Simulated elapsed times are reported as sim-s/op metrics; the one
// real-store bench (the swizzle pass) reports wall time as usual.

import (
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"mmjoin/internal/core"
	"mmjoin/internal/disk"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/model"
	"mmjoin/internal/mstore"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
	"mmjoin/internal/seg"
	"mmjoin/internal/sweep"
	"mmjoin/internal/vm"
)

var paperScale = flag.Bool("paperscale", false, "run simulated benches at the paper's full 102400-object scale")

func benchSpec() relation.Spec {
	spec := relation.DefaultSpec()
	if !*paperScale {
		spec.NR, spec.NS = 20480, 20480
	}
	return spec
}

func benchExperiment(b *testing.B) *core.Experiment {
	b.Helper()
	e, err := core.NewExperiment(machine.DefaultConfig(), benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkFig1aDiskTransfer regenerates the dttr/dttw curves of
// Fig. 1(a) and reports the end points as metrics.
func BenchmarkFig1aDiskTransfer(b *testing.B) {
	cfg := machine.DefaultConfig()
	var pts []disk.DTTPoint
	for i := 0; i < b.N; i++ {
		pts = disk.MeasureDTT(cfg.Disk, disk.StandardBands, 2000, 1, nil)
	}
	for _, pt := range pts {
		b.Logf("band %6d  dttr %6.2fms  dttw %6.2fms", pt.Band,
			pt.Read.Milliseconds(), pt.Write.Milliseconds())
	}
	b.ReportMetric(pts[0].Read.Milliseconds(), "dttr-seq-ms")
	b.ReportMetric(pts[len(pts)-1].Read.Milliseconds(), "dttr-12800-ms")
	b.ReportMetric(pts[len(pts)-1].Write.Milliseconds(), "dttw-12800-ms")
}

// BenchmarkFig1bMapSetup regenerates the mapping-setup curves of
// Fig. 1(b) and reports the 12800-block costs.
func BenchmarkFig1bMapSetup(b *testing.B) {
	cfg := machine.DefaultConfig()
	var pts []seg.SetupPoint
	for i := 0; i < b.N; i++ {
		pts = seg.MeasureSetup(cfg.Disk, cfg.Setup, seg.StandardSetupSizes)
	}
	last := pts[len(pts)-1]
	for _, pt := range pts {
		if pt.Pages >= 1600 {
			b.Logf("size %6d  new %5.2fs  open %5.2fs  delete %5.2fs", pt.Pages,
				pt.New.Seconds(), pt.Open.Seconds(), pt.Delete.Seconds())
		}
	}
	b.ReportMetric(last.New.Seconds(), "newMap-12800-s")
	b.ReportMetric(last.Open.Seconds(), "openMap-12800-s")
	b.ReportMetric(last.Delete.Seconds(), "deleteMap-12800-s")
}

// fig5 sweeps one Fig. 5 panel, logging the model-vs-experiment rows and
// reporting the worst relative model error and the low-memory elapsed
// time as metrics.
func fig5(b *testing.B, alg join.Algorithm) {
	e := benchExperiment(b)
	var pts []core.Comparison
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = sweep.Fig5(e, alg, sweep.Fig5Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, c := range pts {
		b.Logf("f=%.3f  experiment %8.1fs  model %8.1fs  err %+5.1f%%",
			c.MemFrac, c.Measured.Seconds(), c.Predicted.Seconds(), 100*c.RelError())
		if re := math.Abs(c.RelError()); re > worst {
			worst = re
		}
	}
	b.ReportMetric(pts[0].Measured.Seconds(), "lowmem-sim-s")
	b.ReportMetric(pts[len(pts)-1].Measured.Seconds(), "highmem-sim-s")
	b.ReportMetric(100*worst, "worst-model-err-%")
}

// BenchmarkFig5aNestedLoops regenerates Fig. 5(a).
func BenchmarkFig5aNestedLoops(b *testing.B) { fig5(b, join.NestedLoops) }

// BenchmarkFig5bSortMerge regenerates Fig. 5(b).
func BenchmarkFig5bSortMerge(b *testing.B) { fig5(b, join.SortMerge) }

// BenchmarkFig5cGrace regenerates Fig. 5(c).
func BenchmarkFig5cGrace(b *testing.B) { fig5(b, join.Grace) }

// BenchmarkAblationStagger compares the paper's staggered pass-1 phases
// against per-phase synchronization and against the naive visiting order
// (§5.1's contention claims).
func BenchmarkAblationStagger(b *testing.B) {
	e := benchExperiment(b)
	variants := []struct {
		name    string
		stagger bool
		sync    bool
	}{
		{"staggered", true, false},
		{"staggered+sync", true, true},
		{"naive", false, false},
	}
	times := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, v := range variants {
			prm := e.ParamsForFraction(0.10)
			prm.Stagger = v.stagger
			prm.SyncPhases = v.sync
			res, err := e.Measure(join.NestedLoops, prm)
			if err != nil {
				b.Fatal(err)
			}
			times[v.name] = res.Elapsed.Seconds()
		}
	}
	for _, v := range variants {
		b.Logf("%-16s %8.1fs", v.name, times[v.name])
		b.ReportMetric(times[v.name], v.name+"-sim-s")
	}
}

// BenchmarkAblationGBuffer sweeps the shared request buffer size G,
// trading context switches against buffer pressure (§5.2).
func BenchmarkAblationGBuffer(b *testing.B) {
	e := benchExperiment(b)
	for _, g := range []int64{512, 4096, 32768} {
		g := g
		b.Run(fmt.Sprintf("G=%d", g), func(b *testing.B) {
			var res *join.Result
			var err error
			for i := 0; i < b.N; i++ {
				prm := e.ParamsForFraction(0.10)
				prm.G = g
				res, err = e.Measure(join.NestedLoops, prm)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Elapsed.Seconds(), "sim-s")
			b.ReportMetric(float64(res.ContextSwitches), "ctx-switches")
		})
	}
}

// BenchmarkAblationNRunRule compares the paper's deliberately
// underutilized merge fan-in (NRUN = M/3B) against the naive maximum
// (M/B), which triggers the LRU replacement anomaly of §6.2. The final
// fan-in is pinned so both variants run the same number of passes and
// only the per-pass memory pressure differs.
func BenchmarkAblationNRunRule(b *testing.B) {
	e := benchExperiment(b)
	frac := 0.010
	mem := int64(frac * float64(e.TotalRBytes()))
	bpages := int(mem / 4096)
	if bpages < 9 {
		bpages = 9
	}
	for _, v := range []struct {
		name string
		nrun int
	}{
		{"paper-M3B", bpages / 3},
		{"naive-MB", bpages},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var res *join.Result
			var err error
			for i := 0; i < b.N; i++ {
				prm := e.ParamsForFraction(frac)
				prm.NRunABL = v.nrun
				prm.NRunLast = 4 // same final merge for both variants
				res, err = e.Measure(join.SortMerge, prm)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Elapsed.Seconds(), "sim-s")
			b.ReportMetric(float64(res.DiskReads), "reads")
			b.ReportMetric(float64(res.NPass), "npass")
		})
	}
}

// BenchmarkExtSpeedup runs the §9 speedup extension (fixed problem,
// growing D) and reports the D=8 speedup factor per algorithm.
func BenchmarkExtSpeedup(b *testing.B) {
	cfg := machine.DefaultConfig()
	spec := benchSpec()
	for i := 0; i < b.N; i++ {
		for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace} {
			times, err := sweep.Speedup(cfg, spec, alg, []int{1, 8}, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			sp := float64(times[1]) / float64(times[8])
			b.Logf("%-12s D=1 %8.1fs  D=8 %8.1fs  speedup %.2fx",
				alg, times[1].Seconds(), times[8].Seconds(), sp)
			if i == 0 {
				b.ReportMetric(sp, alg.String()+"-speedup-x")
			}
		}
	}
}

// BenchmarkModelEvaluation measures the cost of one analytical
// prediction — the model must be cheap enough for a query optimizer.
func BenchmarkModelEvaluation(b *testing.B) {
	cfg := machine.DefaultConfig()
	calib := model.Calibrate(cfg, 500, 1)
	in := model.Inputs{
		NR: 102400, NS: 102400, R: 128, S: 128, Ptr: 8, D: 4,
		MRproc: 512 << 10,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.PredictNestedLoops(calib, in); err != nil {
			b.Fatal(err)
		}
		if _, err := model.PredictSortMerge(calib, in); err != nil {
			b.Fatal(err)
		}
		if _, err := model.PredictGrace(calib, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChooseFor measures what an `auto` join pays to be planned
// once its workload's reference statistics are counted: six candidates
// on the 200,000-object shape, nothing per R object.
func BenchmarkChooseFor(b *testing.B) {
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 200000, 200000
	pl := planner.New(model.Calibrate(machine.DefaultConfig(), 500, 1), planner.IndexAlgorithms)
	req := join.Request{Params: join.Params{Workload: relation.MustGenerate(spec), MRproc: 1 << 20}}
	if _, err := pl.ChooseFor(req); err != nil { // counts the statistics
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.ChooseFor(req); err != nil {
			b.Fatal(err)
		}
	}
}

// Real-store bench. Store joins are timed by benchmark/ alone; the one
// real-store point kept here measures a claim it does not.
func benchDB(b *testing.B) *mstore.DB {
	b.Helper()
	db, err := mstore.CreateDB(filepath.Join(b.TempDir(), "db"), 4, 40000, 40000, 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkMstoreSwizzlePass measures what exact positioning saves: a
// full pointer-relocation pass over R (what an ObjectStore-style system
// would do per mapping) versus the zero work our store does at open.
func BenchmarkMstoreSwizzlePass(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rewrite every join attribute in place (decode + re-encode),
		// the minimal work a relocation/swizzling scheme performs.
		for p := 0; p < db.D; p++ {
			rel := db.R[p]
			for x := 0; x < rel.Count(); x++ {
				obj := rel.Object(x)
				mstore.EncodeSPtr(obj, mstore.DecodeSPtr(obj))
			}
		}
	}
	b.ReportMetric(float64(4*40000*b.N)/b.Elapsed().Seconds(), "ptrs/s")
}

// BenchmarkAblationPolicy compares page replacement policies on the
// Grace thrashing region. The paper attributes part of its residual
// model error to Dynix's "simple page replacement algorithm"; FIFO
// reproduces that behaviour and moves the thrashing knee toward the
// paper's position, while LRU-with-clean-preference thrashes later.
func BenchmarkAblationPolicy(b *testing.B) {
	e := benchExperiment(b)
	for _, pol := range []vm.Policy{vm.LRU, vm.Clock, vm.FIFO} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var res *join.Result
			var err error
			for i := 0; i < b.N; i++ {
				prm := e.ParamsForFraction(0.015)
				prm.Policy = pol
				res, err = e.Measure(join.Grace, prm)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Elapsed.Seconds(), "sim-s")
			b.ReportMetric(float64(res.DiskReads), "reads")
		})
	}
}

// BenchmarkExtHybridHash compares the hybrid-hash extension against
// Grace across the memory range: equal at scarce memory, strictly better
// once part of S stays resident.
func BenchmarkExtHybridHash(b *testing.B) {
	e := benchExperiment(b)
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{0.01, 0.05, 0.20} {
			gr, err := e.Measure(join.Grace, e.ParamsForFraction(f))
			if err != nil {
				b.Fatal(err)
			}
			hh, err := e.Measure(join.HybridHash, e.ParamsForFraction(f))
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("f=%.2f  grace %8.1fs  hybrid %8.1fs  (%.2fx)",
				f, gr.Elapsed.Seconds(), hh.Elapsed.Seconds(),
				float64(gr.Elapsed)/float64(hh.Elapsed))
			if i == 0 && f == 0.20 {
				b.ReportMetric(float64(gr.Elapsed)/float64(hh.Elapsed), "hybrid-gain-x")
			}
		}
	}
}

// BenchmarkExtPointerVsTraditional quantifies the paper's headline claim:
// the virtual-pointer join attribute eliminates hashing and
// repartitioning S. Pointer-based Grace is compared against a
// conventional value-based parallel Grace hash join on the same
// workload.
func BenchmarkExtPointerVsTraditional(b *testing.B) {
	e := benchExperiment(b)
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{0.02, 0.10} {
			ptr, err := e.Measure(join.Grace, e.ParamsForFraction(f))
			if err != nil {
				b.Fatal(err)
			}
			trad, err := e.Measure(join.TraditionalGrace, e.ParamsForFraction(f))
			if err != nil {
				b.Fatal(err)
			}
			gain := float64(trad.Elapsed) / float64(ptr.Elapsed)
			b.Logf("f=%.2f  pointer %8.1fs  traditional %8.1fs  pointer gain %.2fx",
				f, ptr.Elapsed.Seconds(), trad.Elapsed.Seconds(), gain)
			if i == 0 && f == 0.02 {
				b.ReportMetric(gain, "pointer-gain-x")
			}
		}
	}
}
