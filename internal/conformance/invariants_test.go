package conformance

import (
	"math/rand"
	"reflect"
	"testing"

	"mmjoin/internal/disk"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/model"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
	"mmjoin/internal/seg"
	"mmjoin/internal/sim"
	"mmjoin/internal/vm"
)

// smallSpec returns a workload small enough for the fast (-short) tier.
func smallSpec(objects, d int, seed int64) relation.Spec {
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = objects, objects
	spec.D = d
	spec.Seed = seed
	return spec
}

func smallConfig(d int) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.D = d
	cfg.Disk.Blocks = 40000
	return cfg
}

var allAlgorithms = []join.Algorithm{
	join.NestedLoops, join.SortMerge, join.Grace,
	join.HybridHash, join.TraditionalGrace,
}

// TestVirtualTimeDeterminism asserts the simulator's core contract: the
// same seed and configuration produce a bit-for-bit identical Result,
// down to every virtual-time counter.
func TestVirtualTimeDeterminism(t *testing.T) {
	for _, alg := range allAlgorithms {
		cfg := smallConfig(4)
		w := relation.MustGenerate(smallSpec(4000, 4, 3))
		run := func() *join.Result {
			return join.Request{
				Algorithm: alg,
				Config:    cfg,
				Params: join.Params{
					Workload: w,
					MRproc:   int64(0.04 * float64(int64(4000)*int64(w.Spec.RSize))),
					Stagger:  true,
				},
			}.MustRun()
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: two identical runs differ: %+v vs %+v", alg, a, b)
		}
	}
}

// TestWorkloadGenerationDeterminism asserts that relation.Generate is a
// pure function of its Spec.
func TestWorkloadGenerationDeterminism(t *testing.T) {
	spec := smallSpec(4000, 4, 9)
	spec.Dist = relation.Zipf
	spec.ZipfTheta = 1.5
	a := relation.MustGenerate(spec)
	b := relation.MustGenerate(spec)
	if !reflect.DeepEqual(a, b) {
		t.Error("two generations from the same spec differ")
	}
}

// TestRunInvariantsAcrossRandomConfigs is the property layer: seeded
// random draws over algorithm, distribution, degree of parallelism,
// memory fraction, and replacement policy, each checked against every
// conservation law in Result.CheckInvariants (reference-join output
// equality, elapsed/per-proc consistency, phase monotonicity, disk
// service conservation, and fault accounting).
func TestRunInvariantsAcrossRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 12
	if testing.Short() {
		trials = 6
	}
	dists := []relation.Distribution{
		relation.Uniform, relation.Zipf, relation.Local, relation.HotPartition,
	}
	policies := []vm.Policy{vm.LRU, vm.FIFO, vm.Clock}
	for trial := 0; trial < trials; trial++ {
		alg := allAlgorithms[rng.Intn(len(allAlgorithms))]
		d := []int{2, 4}[rng.Intn(2)]
		spec := smallSpec(1000+rng.Intn(3000), d, rng.Int63n(1<<30))
		spec.Dist = dists[rng.Intn(len(dists))]
		spec.ZipfTheta = 1.0 + rng.Float64()
		spec.LocalFrac = 0.5 + 0.4*rng.Float64()
		spec.HotFrac = 0.2 + 0.4*rng.Float64()
		frac := 0.01 + 0.2*rng.Float64()
		w, err := relation.Generate(spec)
		if err != nil {
			t.Fatalf("trial %d: generate: %v", trial, err)
		}
		prm := join.Params{
			Workload: w,
			MRproc:   int64(frac * float64(int64(spec.NR)*int64(spec.RSize))),
			Stagger:  rng.Intn(2) == 0,
			Policy:   policies[rng.Intn(len(policies))],
		}
		res, err := join.Request{Algorithm: alg, Config: smallConfig(d), Params: prm}.Run()
		if err != nil {
			t.Fatalf("trial %d: %v D=%d frac=%.3f: %v", trial, alg, d, frac, err)
		}
		if err := res.CheckInvariants(w); err != nil {
			t.Errorf("trial %d: %v D=%d dist=%v frac=%.3f policy=%v: %v",
				trial, alg, d, spec.Dist, frac, prm.Policy, err)
		}
	}
}

// TestObserverNeutrality asserts that attaching the telemetry layer (a
// metrics registry with its virtual-time sampler) does not perturb the
// simulation: the Result with observation must equal the Result without.
func TestObserverNeutrality(t *testing.T) {
	cfg := smallConfig(4)
	w := relation.MustGenerate(smallSpec(4000, 4, 5))
	prm := join.Params{
		Workload: w,
		MRproc:   int64(0.03 * float64(int64(4000)*int64(w.Spec.RSize))),
		Stagger:  true,
	}
	for _, alg := range []join.Algorithm{join.NestedLoops, join.Grace} {
		plain := join.Request{Algorithm: alg, Config: cfg, Params: prm}.MustRun()
		observed := prm
		observed.Metrics = metrics.New()
		withObs := join.Request{Algorithm: alg, Config: cfg, Params: observed}.MustRun()
		if len(observed.Metrics.Samples()) == 0 {
			t.Fatalf("%v: observer attached but recorded no samples", alg)
		}
		if !reflect.DeepEqual(plain, withObs) {
			t.Errorf("%v: observation changed the run: %+v vs %+v", alg, plain, withObs)
		}
	}
}

// TestModelPredictionConsistency asserts the analytical model's own
// conservation law across all five algorithms: component times are
// non-negative and sum exactly to the predicted total.
func TestModelPredictionConsistency(t *testing.T) {
	cfg := smallConfig(4)
	calib := model.Calibrate(cfg, 500, 1)
	e := &modelExperiment{cfg: cfg, calib: calib}
	for _, alg := range allAlgorithms {
		for _, frac := range []float64{0.01, 0.05, 0.20, 0.60} {
			p, err := e.predict(t, alg, frac)
			if err != nil {
				t.Fatalf("%v at %.2f: %v", alg, frac, err)
			}
			if err := p.CheckConsistency(); err != nil {
				t.Errorf("%v at %.2f: %v", alg, frac, err)
			}
		}
	}
}

type modelExperiment struct {
	cfg   machine.Config
	calib model.Calibration
	w     *relation.Workload
}

func (e *modelExperiment) predict(t *testing.T, alg join.Algorithm, frac float64) (*model.Prediction, error) {
	t.Helper()
	if e.w == nil {
		e.w = relation.MustGenerate(smallSpec(4000, 4, 1))
	}
	in, err := planner.InputsFor(join.Request{Params: join.Params{Workload: e.w}})
	if err != nil {
		return nil, err
	}
	in.MRproc = int64(frac * float64(in.NR*in.R))
	ch, err := planner.New(e.calib, []join.Algorithm{alg}).Choose(in)
	if err != nil {
		return nil, err
	}
	return ch.Best.Prediction, nil
}

// TestPagerInvariantsUnderRandomTraffic drives one pager with seeded
// random page traffic — touches, reads and writes across two segments,
// interleaved reservations, and segment flushes — and checks the
// pager's structural invariants after every step plus the no-lost-page
// quota bound (resident set ≤ frames).
func TestPagerInvariantsUnderRandomTraffic(t *testing.T) {
	k := sim.NewKernel()
	cfg := disk.DefaultConfig()
	cfg.Blocks = 4000
	d := disk.MustNew(k, "d0", cfg)
	sys := seg.NewSystem(seg.DefaultSetupCost())
	mgr := seg.NewManager(sys, d)

	const frames = 24
	pg := vm.NewWithPolicy("pg", frames, vm.LRU)
	rng := rand.New(rand.NewSource(7))

	k.Spawn("driver", func(p *sim.Proc) {
		a := mgr.NewMap(p, "a", 64*int64(cfg.BlockBytes))
		b := mgr.NewMap(p, "b", 64*int64(cfg.BlockBytes))
		segs := []*seg.Segment{a, b}
		reserved := 0
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 7: // touch a random page, sometimes dirtying it
				s := segs[rng.Intn(2)]
				pg.TouchPage(p, s, rng.Intn(s.Pages()), rng.Intn(3) == 0)
			case op == 7 && reserved < frames/2: // pin frames
				reserved += pg.Reserve(p, 1+rng.Intn(4))
			case op == 8 && reserved > 0: // unpin
				n := 1 + rng.Intn(reserved)
				pg.Unreserve(n)
				reserved -= n
			default: // write back one segment
				pg.FlushSegment(p, segs[rng.Intn(2)])
			}
			if pg.Resident() > frames {
				t.Errorf("step %d: resident %d exceeds quota %d", step, pg.Resident(), frames)
			}
			if err := pg.CheckInvariants(); err != nil {
				t.Errorf("step %d: %v", step, err)
				return
			}
		}
		pg.FlushAll(p)
		pg.Unreserve(reserved)
		if err := pg.CheckInvariants(); err != nil {
			t.Errorf("after flush: %v", err)
		}
		d.Drain(p)
		d.Close()
	})
	k.Run()
	if err := d.Stats().CheckConservation(); err != nil {
		t.Errorf("disk after run: %v", err)
	}
	st := pg.Stats()
	if st.Touches != st.Hits+st.Faults {
		t.Errorf("touches %d != hits %d + faults %d", st.Touches, st.Hits, st.Faults)
	}
}

// TestReDirtyDuringFlushNotLost pins the pageout daemon's
// re-dirty-during-flush rule: a block re-dirtied after the flusher has
// picked it up (but before its write completes) must be written a second
// time — deduplicating it against the in-flight batch would silently
// lose the second store. This is the regression test for the flusher's
// dedup-set handling: it fails if the dirty-set deletion moves back to
// after the batch's writes.
func TestReDirtyDuringFlushNotLost(t *testing.T) {
	k := sim.NewKernel()
	cfg := disk.DefaultConfig()
	cfg.Blocks = 4000
	d := disk.MustNew(k, "d0", cfg)

	const block = 100
	k.Spawn("writer", func(p *sim.Proc) {
		d.ScheduleWrite(p, block)
		// Yield briefly: the flusher picks the block up and starts its
		// multi-millisecond write, so the re-dirty below lands mid-flush.
		p.Advance(10 * sim.Microsecond)
		if d.DirtyQueued() != 1 {
			t.Errorf("flusher did not pick up the block (queued %d)", d.DirtyQueued())
		}
		d.ScheduleWrite(p, block)
		d.Drain(p)
		d.Close()
	})
	k.Run()
	if w := d.Stats().Writes; w != 2 {
		t.Errorf("re-dirtied block written %d times, want 2 (second store lost)", w)
	}
}
